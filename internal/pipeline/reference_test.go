package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/core"
	"repro/internal/ir"
)

// RunBatchReference is the pre-work-stealing batch driver, kept as the
// test-only differential oracle: a single unbuffered channel hands indices
// to the pool one synchronized rendezvous at a time, and every worker
// draws its scratch from the shared core pool. It honors the same contract
// as RunBatch — per-index contexts, input-order stats fold, cancellation
// marking — so the property tests can assert the work-stealing driver is
// bit-identical to it.
func RunBatchReference(ctx context.Context, funcs []*ir.Func, p *Pipeline, workers int) *BatchResult {
	workers = clampWorkers(workers, len(funcs))
	res := &BatchResult{
		Contexts: make([]*Context, len(funcs)),
		Errs:     make([]error, len(funcs)),
		Workers:  workers,
	}
	if workers == 1 {
		sc := core.GetScratch()
		for i := range funcs {
			if ctx.Err() != nil {
				break
			}
			res.Contexts[i] = NewContext(funcs[i])
			res.Contexts[i].Scratch = sc
			res.Errs[i] = runSafe(ctx, p, res.Contexts[i])
			detach(res.Contexts[i])
		}
		core.PutScratch(sc)
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := core.GetScratch()
				defer core.PutScratch(sc)
				for i := range next {
					res.Contexts[i] = NewContext(funcs[i])
					res.Contexts[i].Scratch = sc
					res.Errs[i] = runSafe(ctx, p, res.Contexts[i])
					detach(res.Contexts[i])
				}
			}()
		}
		// Cancellation fast path: the moment ctx.Done fires inside the
		// rendezvous, the labeled break abandons the dispatch loop — the
		// remaining indices are never iterated; markSkipped carries them.
	dispatch:
		for i := range funcs {
			select {
			case next <- i:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(next)
		wg.Wait()
	}
	markSkipped(ctx, res)
	foldStats(res)
	return res
}

// BenchmarkRunBatchReference runs the work-stealing driver and the
// reference dispatcher on one generated corpus, so `go test -bench
// RunBatchReference` puts them side by side.
func BenchmarkRunBatchReference(b *testing.B) {
	p := cfggen.DefaultProfile("batchref", 1)
	p.Funcs = 64
	fns := cfggen.Generate(p)
	pl := Translate(core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true})
	drivers := []struct {
		name string
		run  func(context.Context, []*ir.Func, *Pipeline, int) *BatchResult
	}{
		{"stealing", RunBatch},
		{"reference", RunBatchReference},
	}
	workers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workers = append(workers, n)
	}
	for _, d := range drivers {
		for _, w := range workers {
			b.Run(fmt.Sprintf("%s/workers=%d", d.name, w), func(b *testing.B) {
				clones := make([]*ir.Func, len(fns))
				for i := 0; i < b.N; i++ {
					b.StopTimer() // cloning is not part of the translation cost
					for j, f := range fns {
						clones[j] = ir.Clone(f)
					}
					b.StartTimer()
					if err := d.run(context.Background(), clones, pl, w).Err(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
