package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Runtime metrics read through runtime/metrics.
const (
	mHeapLive  = "/gc/heap/live:bytes"
	mAllocs    = "/gc/heap/allocs:bytes"
	mGCCycles  = "/gc/cycles/total:gc-cycles"
	mGCPauses  = "/sched/pauses/total/gc:seconds"
	mbytesUnit = 1 << 20
)

// rtSnap is one reading of the counters a window reports deltas of.
type rtSnap struct {
	allocs, cycles uint64
	pauses         *metrics.Float64Histogram
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCycles}, {Name: mGCPauses}}
	metrics.Read(s)
	return rtSnap{allocs: s[0].Value.Uint64(), cycles: s[1].Value.Uint64(), pauses: s[2].Value.Float64Histogram()}
}

// rtDelta is what the runtime did between two snapshots.
type rtDelta struct {
	allocBytes  float64
	gcCycles    float64
	pauseP99Sec float64
}

func runtimeSince(a rtSnap) rtDelta {
	b := readRuntime()
	d := rtDelta{allocBytes: float64(b.allocs - a.allocs), gcCycles: float64(b.cycles - a.cycles)}
	// p99 of the pauses that happened in between, from the histogram
	// bucket counts' difference; reported as the bucket's upper bound.
	var total uint64
	diff := make([]uint64, len(b.pauses.Counts))
	for i := range diff {
		diff[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += diff[i]
	}
	if total > 0 {
		want := uint64(math.Ceil(0.99 * float64(total)))
		var seen uint64
		for i, c := range diff {
			seen += c
			if seen >= want {
				hi := b.pauses.Buckets[i+1]
				if math.IsInf(hi, 1) {
					hi = b.pauses.Buckets[i]
				}
				d.pauseP99Sec = hi
				break
			}
		}
	}
	return d
}

// liveHeap returns the live heap after a forced collection: the baseline
// a workload's inputs occupy before the system starts.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// heapSampler tracks the peak of /gc/heap/live:bytes (updated by every
// collection) during a timed window, minus what the benchmark itself
// retains at that moment (reported through retained).
type heapSampler struct {
	stop     chan struct{}
	done     chan struct{}
	retained func() float64
	mu       sync.Mutex
	peak     float64
}

func startHeapSampler(retained func() float64) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), retained: retained}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: mHeapLive}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v := float64(s[0].Value.Uint64())
			if h.retained != nil {
				v -= h.retained()
			}
			h.mu.Lock()
			h.peak = math.Max(h.peak, v)
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak live heap in bytes.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}
