package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Spans of the traced run. Every span has a name, a start, an end, a
// parent, and the id of the function or request it belongs to. Spans are
// recorded around the benchmark's own calls into each layer (no span lives
// inside the program), kept in per-goroutine buffers, and written out once
// the run ends.

type span struct {
	id         int64
	parent     int32 // index into the same buffer; -1 for a root
	name       string
	start, end int64 // ns since the tracer's epoch
}

// spanBuf is one goroutine's span log.
type spanBuf struct {
	epoch time.Time
	spans []span
}

func newSpanBuf(epoch time.Time) *spanBuf { return &spanBuf{epoch: epoch} }

func (b *spanBuf) now() int64 { return int64(time.Since(b.epoch)) }

// open starts a span and returns its index; close ends it.
func (b *spanBuf) open(id int64, parent int32, name string) int32 {
	b.spans = append(b.spans, span{id: id, parent: parent, name: name, start: b.now()})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) close(i int32) { b.spans[i].end = b.now() }

// add records a span whose interval the caller measured itself.
func (b *spanBuf) add(id int64, parent int32, name string, start, end int64) int32 {
	b.spans = append(b.spans, span{id: id, parent: parent, name: name, start: start, end: end})
	return int32(len(b.spans) - 1)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count   int
	totalNs int64 // sum of durations
	childNs int64 // sum of the durations of direct children
}

// selfNs is the summed self time: duration minus what the children cover.
// Children of one span never overlap (each goroutine runs its layers one
// after another), so their durations add.
func (l *layerTime) selfNs() int64 { return l.totalNs - l.childNs }

// childFrac is the share of the spans' duration their children account
// for.
func (l *layerTime) childFrac() float64 {
	if l.totalNs == 0 {
		return 0
	}
	return float64(l.childNs) / float64(l.totalNs)
}

// aggregate folds every buffer into per-name totals.
func aggregate(bufs []*spanBuf) map[string]*layerTime {
	out := map[string]*layerTime{}
	get := func(name string) *layerTime {
		l := out[name]
		if l == nil {
			l = &layerTime{}
			out[name] = l
		}
		return l
	}
	for _, b := range bufs {
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			l := get(s.name)
			l.count++
			l.totalNs += s.end - s.start
			l.childNs += child[i]
		}
	}
	return out
}

// maxWrittenSpans caps the span file; the aggregates always cover every
// span recorded.
const maxWrittenSpans = 200_000

// writeSpans writes the spans as JSON lines and returns how many it wrote.
func writeSpans(path string, bufs []*spanBuf) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	n := 0
	for bi, b := range bufs {
		for i, s := range b.spans {
			if n == maxWrittenSpans {
				break
			}
			parent := "null"
			if s.parent >= 0 {
				parent = fmt.Sprintf(`"%d.%d"`, bi, s.parent)
			}
			fmt.Fprintf(w, `{"span":"%d.%d","parent":%s,"id":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				bi, i, parent, s.id, s.name, s.start, s.end)
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
