package main

import (
	"context"
	"testing"
	"time"
)

// TestServePhaseTraced drives a booted system through one short traced
// phase from both senders at once, then checks the outputs and replays the
// bodies: every request must succeed, carry a client and a handler span,
// pass the check, and replay without error.
func TestServePhaseTraced(t *testing.T) {
	c, warm := newServeCorpus(3, serveRecent+16, 200)
	w, err := buildServeWorkload(c, warm, scheduleFor(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	handler := newIntervals(time.Now())
	sys, err := w.boot(ctx, handler)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.stop()
	client := newIntervals(handler.epoch)
	pos := 0
	st := w.phase(ctx, sys, &pos, 200, 0.5, client)
	if st.failed != 0 || st.attempted != pos {
		t.Fatalf("%d of %d requests failed", st.failed, st.attempted)
	}
	if len(client.spans) != pos || len(handler.spans) != pos {
		t.Fatalf("%d requests, %d client spans, %d handler spans", pos, len(client.spans), len(handler.spans))
	}
	rep := &report{vals: map[string]float64{}}
	w.check(rep)
	if rep.checked == 0 || rep.wrong != 0 {
		t.Fatalf("checked %d outputs, %d wrong", rep.checked, rep.wrong)
	}
	buf, total, _, err := w.replay(handler.epoch, pos/2, pos)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || aggregate([]*spanBuf{buf})["request"].count != pos-pos/2 {
		t.Fatalf("replay recorded %d ns over %d spans", total, len(buf.spans))
	}
}
