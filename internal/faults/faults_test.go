package faults

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// reset returns the framework to its pristine state between tests.
func reset() {
	Disable()
}

func TestDisarmedInjectIsNil(t *testing.T) {
	defer reset()
	p := Register("test.disarmed")
	if err := p.Inject(); err != nil {
		t.Fatalf("disarmed Inject returned %v", err)
	}
	if armed.Load() {
		t.Fatal("gate armed before Enable")
	}
}

func TestErrorKindAlways(t *testing.T) {
	defer reset()
	p := Register("test.err")
	if err := Enable("test.err=err", 1); err != nil {
		t.Fatal(err)
	}
	if !armed.Load() {
		t.Fatal("gate disarmed after Enable")
	}
	for i := 0; i < 3; i++ {
		err := p.Inject()
		var fe *Error
		if !errors.As(err, &fe) || fe.Point != "test.err" {
			t.Fatalf("want *Error{test.err}, got %v", err)
		}
	}
	st := Snapshot()["test.err"]
	if st.Evals != 3 || st.Fires != 3 {
		t.Fatalf("snapshot = %+v, want 3/3", st)
	}
}

func TestPanicKind(t *testing.T) {
	defer reset()
	p := Register("test.panic")
	if err := Enable("test.panic=panic", 1); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		pv, ok := r.(*PanicValue)
		if !ok || pv.Point != "test.panic" {
			t.Fatalf("recovered %v, want *PanicValue{test.panic}", r)
		}
	}()
	p.Inject()
	t.Fatal("Inject did not panic")
}

func TestSleepKind(t *testing.T) {
	defer reset()
	p := Register("test.sleep")
	if err := Enable("test.sleep=sleep=20ms", 1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.Inject(); err != nil {
		t.Fatalf("sleep fault returned %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("sleep fault returned after %v, want >= 20ms", d)
	}
}

func TestEveryNth(t *testing.T) {
	defer reset()
	p := Register("test.every")
	if err := Enable("test.every=err:every=3", 1); err != nil {
		t.Fatal(err)
	}
	var pattern []bool
	for i := 0; i < 9; i++ {
		pattern = append(pattern, p.Inject() != nil)
	}
	want := []bool{false, false, true, false, false, true, false, false, true}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("every=3 pattern = %v, want %v", pattern, want)
		}
	}
}

func TestOnce(t *testing.T) {
	defer reset()
	p := Register("test.once")
	if err := Enable("test.once=err:once", 1); err != nil {
		t.Fatal(err)
	}
	if p.Inject() == nil {
		t.Fatal("first evaluation did not fire")
	}
	for i := 0; i < 5; i++ {
		if p.Inject() != nil {
			t.Fatal("one-shot fired twice")
		}
	}
}

func TestProbabilityDeterministic(t *testing.T) {
	defer reset()
	p := Register("test.prob")
	run := func(seed int64) []bool {
		if err := Enable("test.prob=err:0.5", seed); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = p.Inject() != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different firing schedules")
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-step schedules")
	}
	fires := 0
	for _, f := range a {
		if f {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("p=0.5 fired %d/64 times", fires)
	}
}

func TestEnableRejectsUnknownPoint(t *testing.T) {
	defer reset()
	Register("test.known")
	err := Enable("test.knwon=err", 1)
	if err == nil || !strings.Contains(err.Error(), "unknown failpoint") {
		t.Fatalf("want unknown-failpoint error, got %v", err)
	}
	if armed.Load() {
		t.Fatal("failed Enable armed the gate")
	}
}

func TestEnableRejectsBadSpecs(t *testing.T) {
	defer reset()
	Register("test.spec")
	for _, spec := range []string{
		"",
		"test.spec",
		"test.spec=boom",
		"test.spec=err:1.5",
		"test.spec=err:-0.1",
		"test.spec=err:every=0",
		"test.spec=sleep=nope",
		"test.spec=sleep=-1ms",
		"test.spec=err:0.1:extra",
		"test.spec=err,test.spec=panic",
	} {
		if err := Enable(spec, 1); err == nil {
			t.Errorf("Enable(%q) succeeded, want error", spec)
		}
	}
}

func TestDisableDisarmsAndKeepsCounters(t *testing.T) {
	defer reset()
	p := Register("test.disable")
	if err := Enable("test.disable=err", 1); err != nil {
		t.Fatal(err)
	}
	p.Inject()
	Disable()
	if p.Inject() != nil {
		t.Fatal("Inject fired after Disable")
	}
	if st := Snapshot()["test.disable"]; st.Fires != 1 {
		t.Fatalf("Disable cleared counters: %+v", st)
	}
}

func TestEnableResetsCounters(t *testing.T) {
	defer reset()
	p := Register("test.reset")
	if err := Enable("test.reset=err", 1); err != nil {
		t.Fatal(err)
	}
	p.Inject()
	if err := Enable("test.reset=err", 2); err != nil {
		t.Fatal(err)
	}
	if st := Snapshot()["test.reset"]; st.Evals != 0 || st.Fires != 0 {
		t.Fatalf("re-Enable kept counters: %+v", st)
	}
}

func TestRegisterIsIdempotent(t *testing.T) {
	a := Register("test.idem")
	b := Register("test.idem")
	if a != b {
		t.Fatal("Register returned distinct points for one name")
	}
	found := false
	for _, n := range Names() {
		if n == "test.idem" {
			found = true
		}
	}
	if !found {
		t.Fatal("Names() missing registered point")
	}
}

func TestConcurrentInject(t *testing.T) {
	defer reset()
	p := Register("test.conc")
	if err := Enable("test.conc=err:0.5", 7); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				p.Inject()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if st := Snapshot()["test.conc"]; st.Evals != 1600 {
		t.Fatalf("evals = %d, want 1600", st.Evals)
	}
}
