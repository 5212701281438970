// Chaos suite: a self-hosted daemon driven by mixed translate/batch
// traffic while a seeded failpoint schedule fires in every layer (parser,
// pass pipeline, memo, serve handlers). The invariants under fault:
//
//   - the daemon never dies — every panic is contained to its request;
//   - every request ends in exactly one of {2xx, typed 4xx/5xx, client
//     timeout} — no hung or unclassifiable outcomes;
//   - the /v1/stats books balance: requests land in exactly one terminal
//     bucket, admission gauges return to zero, goroutines do not leak;
//   - after the schedule is disarmed, traffic translates correctly against
//     the Interpret/Equivalent oracle — faults never corrupt results.
//
// SSAD_CHAOS_DURATION stretches the traffic window (CI runs 15s under
// -race; the default keeps `go test` fast).
package serve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/outofssa"
	"repro/outofssa/serve"
	"repro/outofssa/serve/client"
)

// chaosDuration is the traffic window, overridable via SSAD_CHAOS_DURATION.
func chaosDuration(t *testing.T) time.Duration {
	t.Helper()
	if v := os.Getenv("SSAD_CHAOS_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("bad SSAD_CHAOS_DURATION %q: %v", v, err)
		}
		return d
	}
	return 400 * time.Millisecond
}

// chaosSources builds a small pool of distinct single-function sources (so
// the memo sees both misses and hits) plus one multi-function batch source.
func chaosSources(t *testing.T) (singles []string, batch string) {
	t.Helper()
	for seed := int64(1); seed <= 6; seed++ {
		p := outofssa.DefaultProfile(fmt.Sprintf("chaos%d", seed), seed)
		p.Funcs = 1
		p.MaxStmts = 12
		p.MinStmts = 4
		fns := outofssa.Generate(p)
		singles = append(singles, fns[0].String()+"\n")
	}
	pb := outofssa.DefaultProfile("chaosbatch", 99)
	pb.Funcs = 4
	pb.MaxStmts = 10
	pb.MinStmts = 3
	var b strings.Builder
	for _, f := range outofssa.Generate(pb) {
		b.WriteString(f.String())
		b.WriteString("\n")
	}
	return singles, b.String()
}

// outcomes tallies terminal request classifications across the swarm.
type outcomes struct {
	ok      atomic.Int64 // 2xx
	typed   atomic.Int64 // *client.APIError (4xx/5xx with a wire body)
	timeout atomic.Int64 // client-side context expiry
	other   atomic.Int64 // anything else — must stay zero

	mu       sync.Mutex
	examples []string // first few unclassifiable errors, for the report
}

func (o *outcomes) classify(err error) {
	switch {
	case err == nil:
		o.ok.Add(1)
	case func() bool { var ae *client.APIError; return errors.As(err, &ae) }():
		o.typed.Add(1)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		o.timeout.Add(1)
	default:
		o.other.Add(1)
		o.mu.Lock()
		if len(o.examples) < 5 {
			o.examples = append(o.examples, err.Error())
		}
		o.mu.Unlock()
	}
}

// quiesce polls stats until the admission gauges drop to zero and the
// request books balance, then returns the settled scrape.
func quiesce(t *testing.T, cl *client.Client) *serve.StatsResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last *serve.StatsResponse
	for time.Now().Before(deadline) {
		st, err := cl.Stats(context.Background())
		if err == nil {
			last = st
			accounted := st.Requests.OK + st.Requests.Failed + st.Requests.Canceled +
				st.Requests.Overloaded + st.Requests.BadRequest + st.Requests.Panicked
			if st.InFlight == 0 && st.Queued == 0 && accounted == st.Requests.Translate+st.Requests.Batch {
				return st
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if last == nil {
		t.Fatal("stats never became scrapable")
	}
	return last
}

func assertBooksBalance(t *testing.T, st *serve.StatsResponse) {
	t.Helper()
	accounted := st.Requests.OK + st.Requests.Failed + st.Requests.Canceled +
		st.Requests.Overloaded + st.Requests.BadRequest + st.Requests.Panicked
	if got := st.Requests.Translate + st.Requests.Batch; accounted != got {
		t.Errorf("request books do not balance: %d translate+batch vs %d accounted (%+v)",
			got, accounted, st.Requests)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("admission gauges did not return to zero: in_flight=%d queued=%d",
			st.InFlight, st.Queued)
	}
}

// chaosSchedule arms every registered layer: parser, pipeline (both the
// generic per-pass point and the out-of-SSA entry), memo store and
// materialize, and the serve handler stages. Panic kinds sit only where
// the containment story is interesting: inside the pipeline (recovered
// into *PassError by Apply) and in the handler (recovered into a 500 by
// the isolation middleware).
const chaosSchedule = "parse.func=err:0.03," +
	"pipeline.pass=err:0.02," +
	"pipeline.outofssa=panic:every=29," +
	"memo.store=err:0.25," +
	"memo.materialize=sleep=200us:0.25," +
	"serve.decode=err:0.02," +
	"serve.translate=panic:every=17," +
	"serve.encode=err:0.05," +
	"serve.stats=err:every=2"

func TestChaos(t *testing.T) {
	singles, batchSrc := chaosSources(t)
	ts, cl := startServer(t, serve.Config{MaxInFlight: 4, MaxQueue: 8, BatchWorkers: 2})
	goroutinesBefore := runtime.NumGoroutine()

	if err := outofssa.EnableFaults(chaosSchedule, 20260808); err != nil {
		t.Fatal(err)
	}
	defer faults.Disable()

	var out outcomes
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(worker), 7))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				req := serve.TranslateRequest{Quiet: true}
				roll := rng.IntN(10)
				switch {
				case roll < 2:
					// Aggressive client-side timeout: disconnects mid-queue
					// and mid-translation.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.IntN(3))*time.Millisecond)
					req.Source = singles[rng.IntN(len(singles))]
					_, err := cl.Translate(ctx, req)
					out.classify(err)
				case roll < 3:
					// Tiny server-side deadline: forces 504s.
					req.TimeoutMillis = 1
					req.Source = singles[rng.IntN(len(singles))]
					_, err := cl.Translate(ctx, req)
					out.classify(err)
				case roll < 6:
					req.Source = batchSrc
					_, err := cl.Batch(ctx, req, nil)
					out.classify(err)
				default:
					req.Source = singles[rng.IntN(len(singles))]
					_, err := cl.Translate(ctx, req)
					out.classify(err)
				}
				cancel()
				if i%50 == 0 {
					// Scrape under fire, so serve.stats fires too; outcome
					// intentionally unclassified (stats is not a books route).
					sctx, scancel := context.WithTimeout(context.Background(), time.Second)
					_, _ = cl.Stats(sctx)
					scancel()
				}
			}
		}(worker)
	}
	time.Sleep(chaosDuration(t))
	close(stop)
	wg.Wait()
	// Guarantee the stats failpoint sees enough evals regardless of how far
	// the swarm got in the window (under -race it runs far fewer ops).
	for i := 0; i < 4; i++ {
		sctx, scancel := context.WithTimeout(context.Background(), time.Second)
		_, _ = cl.Stats(sctx)
		scancel()
	}
	faults.Disable()

	st := quiesce(t, cl)
	assertBooksBalance(t, st)

	// The daemon survived (trivially — we got a scrape), and it actually
	// absorbed panics, not just errors.
	if st.PanicTotal == 0 {
		t.Error("no panics were recovered; the panic failpoints never reached the middleware")
	}
	if st.Requests.Panicked == 0 {
		t.Error("no requests landed in the panicked bucket")
	}
	if out.ok.Load() == 0 {
		t.Error("no request succeeded under chaos; the schedule is too hot to prove liveness")
	}
	if n := out.other.Load(); n != 0 {
		t.Errorf("%d requests ended in an unclassifiable outcome (want {2xx, typed 4xx/5xx, client timeout}); e.g. %q",
			n, out.examples)
	}

	// Every armed layer must have delivered faults, or the run proved
	// nothing about that layer.
	snap := faults.Snapshot()
	for _, point := range []string{
		"parse.func", "pipeline.pass", "pipeline.outofssa",
		"memo.store", "memo.materialize",
		"serve.decode", "serve.translate", "serve.encode", "serve.stats",
	} {
		if snap[point].Fires == 0 {
			t.Errorf("failpoint %s never fired (evals=%d); schedule or traffic shape is off",
				point, snap[point].Evals)
		}
	}

	// Post-chaos correctness: with the schedule disarmed, served output
	// must match a local reference translation on the interpreter oracle.
	for _, src := range singles[:3] {
		resp, err := cl.Translate(context.Background(), serve.TranslateRequest{Source: src})
		if err != nil {
			t.Fatalf("post-chaos translate: %v", err)
		}
		pristine := outofssa.MustParse(src)
		served, err := outofssa.ParseAll(resp.Output)
		if err != nil {
			t.Fatalf("post-chaos output does not parse: %v", err)
		}
		for trial := int64(0); trial < 3; trial++ {
			params := make([]int64, pristine.NumParams)
			for i := range params {
				params[i] = trial*7 + int64(i) + 1
			}
			want, err := outofssa.Interpret(pristine, params, 20000)
			if err != nil {
				continue // reference run didn't terminate cleanly; not an oracle case
			}
			got, err := outofssa.Interpret(served[0], params, 20000)
			if err != nil {
				t.Fatalf("post-chaos served output failed to execute: %v", err)
			}
			if !outofssa.Equivalent(want, got) {
				t.Fatalf("post-chaos behaviour differs for params %v:\n%s", params, resp.Output)
			}
		}
	}

	// Goroutine stability: the swarm, its timers, and every aborted request
	// must unwind. httptest keep-alive conns linger briefly; poll with
	// tolerance.
	ts.CloseClientConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= goroutinesBefore+8 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore+8 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines grew %d -> %d under chaos\n%s",
			goroutinesBefore, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestAdmissionBooksUnderDisconnectAndFaults is the focused satellite of
// TestChaos: deterministic every-N handler faults combined with mid-request
// client disconnects, asserting the admission accounting — not the fault
// surface — stays exact. Extends the TestBatchClientDisconnect leak story
// with faults in the mix.
func TestAdmissionBooksUnderDisconnectAndFaults(t *testing.T) {
	singles, batchSrc := chaosSources(t)
	_, cl := startServer(t, serve.Config{MaxInFlight: 2, MaxQueue: 2, BatchWorkers: 2})
	goroutinesBefore := runtime.NumGoroutine()

	if err := outofssa.EnableFaults("serve.translate=panic:every=5,serve.encode=err:every=7", 7); err != nil {
		t.Fatal(err)
	}
	defer faults.Disable()

	var wg sync.WaitGroup
	for worker := 0; worker < 6; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch {
				case i%3 == 0:
					// Disconnect mid-batch: cancel while the stream runs.
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
					_, _ = cl.Batch(ctx, serve.TranslateRequest{Source: batchSrc, Quiet: true}, nil)
					cancel()
				case i%3 == 1:
					ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
					_, _ = cl.Translate(ctx, serve.TranslateRequest{Source: singles[i%len(singles)], Quiet: true})
					cancel()
				default:
					_, _ = cl.Translate(context.Background(), serve.TranslateRequest{Source: singles[i%len(singles)], Quiet: true})
				}
			}
		}(worker)
	}
	wg.Wait()
	faults.Disable()

	st := quiesce(t, cl)
	assertBooksBalance(t, st)
	if st.PanicTotal == 0 {
		t.Error("handler panic failpoint never fired")
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > goroutinesBefore+8 {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore+8 {
		t.Errorf("goroutines grew %d -> %d", goroutinesBefore, n)
	}
}

// TestMemoSnapshotRestoresHitRate proves the restart story end to end:
// traffic warms server 1's memo, the memo is snapshotted, a brand-new
// server loads it, and replayed traffic hits the memo immediately.
func TestMemoSnapshotRestoresHitRate(t *testing.T) {
	singles, _ := chaosSources(t)

	s1 := serve.New(serve.Config{})
	ts1 := httptest.NewServer(s1)
	cl1 := client.New(ts1.URL, ts1.Client())
	for _, src := range singles {
		if _, err := cl1.Translate(context.Background(), serve.TranslateRequest{Source: src, Quiet: true}); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := s1.Memo().Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	s2 := serve.New(serve.Config{})
	loaded, skipped, err := s2.Memo().Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != len(singles) || skipped != 0 {
		t.Fatalf("loaded %d skipped %d, want %d/0", loaded, skipped, len(singles))
	}
	ts2 := httptest.NewServer(s2)
	t.Cleanup(ts2.Close)
	cl2 := client.New(ts2.URL, ts2.Client())

	for _, src := range singles {
		resp, err := cl2.Translate(context.Background(), serve.TranslateRequest{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.MemoHit {
			t.Fatalf("replayed request missed the restored memo")
		}
		// Restored entries must still behave: oracle the served output.
		pristine := outofssa.MustParse(src)
		served, err := outofssa.ParseAll(resp.Output)
		if err != nil {
			t.Fatalf("restored output does not parse: %v", err)
		}
		params := make([]int64, pristine.NumParams)
		for i := range params {
			params[i] = int64(i) + 3
		}
		if want, err := outofssa.Interpret(pristine, params, 20000); err == nil {
			got, err := outofssa.Interpret(served[0], params, 20000)
			if err != nil || !outofssa.Equivalent(want, got) {
				t.Fatalf("restored memo entry produced wrong behaviour (err=%v)", err)
			}
		}
	}
	st, err := cl2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Memo == nil || st.Memo.Hits == 0 {
		t.Fatalf("stats report no memo hits after restore: %+v", st.Memo)
	}
}
