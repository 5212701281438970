// Command ssad is the out-of-SSA translation daemon: a long-lived HTTP
// server around the repro/outofssa engine (via repro/outofssa/serve) for
// JIT/compile-server style deployments where translation runs continuously
// under time and memory pressure.
//
//	ssad -addr :8377
//	ssagen -funcs 1 | curl -s --data-binary @- 'localhost:8377/v1/translate?strategy=sharing'
//	ssagen -funcs 8 | curl -sN --data-binary @- 'localhost:8377/v1/batch?quiet=true'
//	curl -s localhost:8377/v1/stats
//
// Endpoints: POST /v1/translate (one function → JSON), POST /v1/batch
// (many functions → NDJSON stream in completion order), GET /v1/stats
// (cumulative Figure 5-style counters, cache hit rates, latency
// quantiles), GET /healthz. Each request selects its own coalescing
// strategy and machinery options (JSON body or query parameters; see the
// serve package). The daemon sheds load with 429 + Retry-After once its
// in-flight slots and queue are full, and drains gracefully on
// SIGINT/SIGTERM: new work is refused with 503 while admitted requests run
// to completion (up to -drain).
//
// -admin opts into a second listener (bind it to loopback) with
// /debug/pprof/* and a duplicate /v1/stats.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/cmd/internal/profileflags"
	"repro/outofssa"
	"repro/outofssa/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ssad: ")
	addr := flag.String("addr", ":8377", "serving address")
	admin := flag.String("admin", "", "opt-in admin address for /debug/pprof and /v1/stats (e.g. 127.0.0.1:6060); empty disables")
	inflight := flag.Int("inflight", 0, "max concurrently admitted requests (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max requests queued for admission before 429 (0 = 4x inflight, negative = no queue)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline (requests may ask for less via timeout_ms)")
	maxTimeout := flag.Duration("maxtimeout", 5*time.Minute, "ceiling on requested per-request deadlines")
	workers := flag.Int("workers", 0, "translation workers per /v1/batch request (0 = GOMAXPROCS)")
	memoEntries := flag.Int("memo-entries", 0, "max entries in the shared translation memo (0 = default 4096, negative disables memoization)")
	memoBytes := flag.Int64("memo-bytes", 0, "approximate byte budget of the translation memo (0 = default 256 MiB)")
	memoFile := flag.String("memo-file", "", "persist the translation memo across restarts: load from this file on boot, snapshot to it after drain")
	drain := flag.Duration("drain", 15*time.Second, "graceful drain window on SIGINT/SIGTERM before in-flight work is aborted")
	faultSpec := flag.String("faults", "", "arm failpoints, e.g. 'serve.decode=err:0.01,pipeline.outofssa=panic:every=500' (chaos testing; see -faults list)")
	faultSeed := flag.Int64("faults-seed", 1, "deterministic seed for probabilistic failpoint activations")
	profileflags.Register()
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ssad [flags]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(),
			"\nPer-request strategy names (JSON \"strategy\" field or ?strategy=):\n  %s\n",
			strings.Join(outofssa.StrategyNames(), ", "))
		fmt.Fprintf(flag.CommandLine.Output(),
			"\nRegistered failpoints for -faults (name=err|panic|sleep=DUR[:prob|:every=N|:once]):\n  %s\n",
			strings.Join(outofssa.FaultPoints(), ", "))
	}
	flag.Parse()
	if *faultSpec != "" {
		if err := outofssa.EnableFaults(*faultSpec, *faultSeed); err != nil {
			log.Fatal(err)
		}
		log.Printf("failpoints armed: %s (seed %d)", *faultSpec, *faultSeed)
	}
	os.Exit(run(*addr, *admin, serve.Config{
		MaxInFlight:    *inflight,
		MaxQueue:       *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		BatchWorkers:   *workers,
		MemoEntries:    *memoEntries,
		MemoBytes:      *memoBytes,
	}, *drain, *memoFile))
}

// run owns the daemon's lifetime (and the deferred profile writers, which
// would be truncated by an os.Exit in main).
func run(addr, admin string, cfg serve.Config, drain time.Duration, memoFile string) int {
	stop, err := profileflags.Start()
	if err != nil {
		log.Print(err)
		return 1
	}
	defer stop()

	s := serve.New(cfg)
	if memoFile != "" {
		if s.Memo() == nil {
			log.Print("-memo-file ignored: memoization disabled (-memo-entries < 0)")
		} else {
			loadMemo(s, memoFile)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	httpSrv := &http.Server{Handler: s}

	var adminSrv *http.Server
	if admin != "" {
		aln, err := net.Listen("tcp", admin)
		if err != nil {
			log.Print(err)
			return 1
		}
		adminSrv = &http.Server{Handler: s.AdminHandler()}
		log.Printf("admin (pprof, stats) on http://%s", aln.Addr())
		go func() {
			if err := adminSrv.Serve(aln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("admin server: %v", err)
			}
		}()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	ec := s.Config()
	log.Printf("serving on http://%s (inflight=%d queue=%d batch-workers=%d timeout=%s)",
		ln.Addr(), ec.MaxInFlight, ec.MaxQueue, ec.BatchWorkers, ec.DefaultTimeout)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Printf("server: %v", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: refuse new work crisply (503), then let admitted
	// requests finish within the window; past it, abort hard — in-flight
	// translations stop at their next pass boundary when their request
	// contexts die with the connections.
	log.Printf("signal received; draining (up to %s)", drain)
	s.Drain()
	dctx, dcancel := context.WithTimeout(context.Background(), drain)
	defer dcancel()
	clean := true
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("drain window expired; aborting in-flight requests: %v", err)
		httpSrv.Close()
		clean = false
	}
	if adminSrv != nil {
		adminSrv.Close()
	}
	// Persist the memo after drain, so the snapshot holds every
	// translation the last requests stored. Even an aborted drain
	// snapshots: the memo only holds completed translations.
	if memoFile != "" && s.Memo() != nil {
		saveMemo(s, memoFile)
	}
	if clean {
		log.Print("drained cleanly")
		return 0
	}
	return 1
}

// loadMemo warms the server memo from path. A missing file is the normal
// first boot; a file of another format or version (such as a version-1
// snapshot) starts cold and is overwritten at drain; damaged records are
// skipped one by one by the loader.
func loadMemo(s *serve.Server, path string) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			log.Printf("memo file %s not found; starting cold", path)
		} else {
			log.Printf("memo load: %v (starting cold)", err)
		}
		return
	}
	defer f.Close()
	loaded, skipped, err := s.Memo().Load(f)
	if err != nil {
		log.Printf("%s: %v (%d entries restored, %d damaged records skipped)", path, err, loaded, skipped)
		return
	}
	log.Printf("memo restored from %s: %d entries (%d damaged records skipped)", path, loaded, skipped)
}

// saveMemo snapshots the memo atomically: write and sync a temp file in
// the target directory, then rename over path, so a crash or power loss
// mid-write never tears the previous snapshot.
func saveMemo(s *serve.Server, path string) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		log.Printf("memo snapshot: %v", err)
		return
	}
	defer os.Remove(tmp.Name())
	if err := s.Memo().Snapshot(tmp); err != nil {
		tmp.Close()
		log.Printf("memo snapshot: %v", err)
		return
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		log.Printf("memo snapshot: %v", err)
		return
	}
	if err := tmp.Close(); err != nil {
		log.Printf("memo snapshot: %v", err)
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		log.Printf("memo snapshot: %v", err)
		return
	}
	st := s.Memo().Stats()
	log.Printf("memo snapshot written to %s (%d entries, ~%d bytes retained)", path, st.Entries, st.Bytes)
}
