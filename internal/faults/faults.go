// Package faults is the repo-wide failpoint framework: named injection
// points compiled into the production code paths (parser, pass pipeline,
// translation memo, every serve handler stage) that are inert
// until a test — or the ssad -faults flag — arms them with a deterministic,
// seeded schedule. The chaos suite drives the serving stack while these
// points fire to prove the resilience layer: a daemon that stays up, books
// that balance, and requests that always end in exactly one outcome.
//
// A package declares its points once at init time and fires them inline:
//
//	var fpDecode = faults.Register("serve.decode")
//
//	if err := fpDecode.Inject(); err != nil { ... }
//
// When nothing is armed, Inject is a single atomic load — the package-level
// gate — so production binaries pay effectively nothing for carrying the
// points. Arming happens through a schedule spec:
//
//	faults.Enable("serve.decode=err:0.01,pipeline.outofssa=panic:every=500", seed)
//
// Grammar: comma-separated  name=kind[:activation]  clauses, where kind is
//
//	err          return an *Error from Inject
//	panic        panic with a *PanicValue
//	sleep=DUR    sleep DUR, then return nil (latency fault)
//
// and the optional activation is one of
//
//	<float>      fire with that probability (seeded, deterministic)
//	every=N      fire on every Nth evaluation
//	once         fire on the first evaluation only
//
// Omitting the activation fires on every evaluation. Each point draws from
// its own deterministic generator derived from the schedule seed and the
// point name, so a given (spec, seed) pair produces the same firing
// schedule on every run — chaos failures reproduce.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Error is the error an armed err-kind failpoint returns from Inject.
type Error struct {
	// Point is the failpoint's registered name.
	Point string
}

func (e *Error) Error() string { return "faults: injected failure at " + e.Point }

// PanicValue is the value an armed panic-kind failpoint panics with, so
// recovery sites can attribute the panic to its injection point.
type PanicValue struct {
	// Point is the failpoint's registered name.
	Point string
}

func (p *PanicValue) String() string { return "faults: injected panic at " + p.Point }

// Kind classifies what an armed failpoint does when it fires.
type Kind uint8

// The fault kinds.
const (
	// KindError returns an *Error from Inject.
	KindError Kind = iota
	// KindPanic panics with a *PanicValue.
	KindPanic
	// KindSleep sleeps for the configured duration and returns nil.
	KindSleep
)

// config is one armed schedule clause. It is immutable except for the
// firing counters, which are guarded by the owning Point's mutex.
type config struct {
	kind  Kind
	sleep time.Duration

	// Activation: exactly one of prob/every/once is set; none means fire
	// on every evaluation.
	prob  float64
	every int64
	once  bool

	evals int64 // evaluations under this config
	fired bool  // for once
	rng   *rand.Rand
}

// Point is one registered failpoint. Points are created by Register
// (typically in a package-level var) and live for the process's lifetime.
type Point struct {
	name  string
	evals atomic.Int64 // evaluations while armed, since the last Enable
	fires atomic.Int64 // faults actually delivered, since the last Enable

	mu  sync.Mutex
	cfg *config // nil while this point is unarmed
}

var (
	// armed is the package-level gate: false means every Inject call
	// returns immediately after one atomic load.
	armed atomic.Bool

	regMu    sync.Mutex
	registry = map[string]*Point{}
)

// Register declares (or retrieves) the failpoint with the given name.
// Registering the same name twice returns the same Point, so tests and the
// owning package can share one.
func Register(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	if p, ok := registry[name]; ok {
		return p
	}
	p := &Point{name: name}
	registry[name] = p
	return p
}

// Names returns every registered failpoint name, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Enable replaces the active schedule with the parsed spec, seeds every
// named point deterministically, resets all firing counters, and arms the
// package gate. Naming a point that no imported package has registered is
// an error — it is almost always a typo, and a silently inert clause would
// make a chaos run prove nothing.
func Enable(spec string, seed int64) error {
	cfgs, err := parseSpec(spec, seed)
	if err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	for name, p := range registry {
		p.mu.Lock()
		p.cfg = cfgs[name]
		p.mu.Unlock()
		p.evals.Store(0)
		p.fires.Store(0)
	}
	armed.Store(true)
	return nil
}

// Disable disarms every failpoint and the package gate. Firing counters
// are kept until the next Enable, so a test can Disable and then read its
// Snapshot.
func Disable() {
	armed.Store(false)
	regMu.Lock()
	defer regMu.Unlock()
	for _, p := range registry {
		p.mu.Lock()
		p.cfg = nil
		p.mu.Unlock()
	}
}

// parseSpec parses the schedule grammar documented on the package. The
// caller must not have mutated the registry between parse and install; the
// strict unknown-name check runs here.
func parseSpec(spec string, seed int64) (map[string]*config, error) {
	cfgs := map[string]*config{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("faults: bad clause %q (want name=kind[:activation])", clause)
		}
		regMu.Lock()
		_, known := registry[name]
		regMu.Unlock()
		if !known {
			return nil, fmt.Errorf("faults: unknown failpoint %q (registered: %s)",
				name, strings.Join(Names(), ", "))
		}
		if _, dup := cfgs[name]; dup {
			return nil, fmt.Errorf("faults: failpoint %q named twice", name)
		}
		cfg, err := parseClause(rest)
		if err != nil {
			return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
		}
		cfg.rng = rand.New(rand.NewSource(seed ^ int64(hashName(name))))
		cfgs[name] = cfg
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("faults: empty schedule spec")
	}
	return cfgs, nil
}

// parseClause parses "kind[:activation]" — everything right of the '='.
func parseClause(rest string) (*config, error) {
	parts := strings.Split(rest, ":")
	cfg := &config{}
	kind := strings.TrimSpace(parts[0])
	switch {
	case kind == "err":
		cfg.kind = KindError
	case kind == "panic":
		cfg.kind = KindPanic
	case strings.HasPrefix(kind, "sleep="):
		d, err := time.ParseDuration(strings.TrimPrefix(kind, "sleep="))
		if err != nil {
			return nil, fmt.Errorf("bad sleep duration: %w", err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("sleep duration must be positive, got %s", d)
		}
		cfg.kind = KindSleep
		cfg.sleep = d
	default:
		return nil, fmt.Errorf("unknown fault kind %q (err, panic, or sleep=DUR)", kind)
	}
	if len(parts) > 2 {
		return nil, fmt.Errorf("too many ':' fields")
	}
	if len(parts) == 1 {
		return cfg, nil
	}
	act := strings.TrimSpace(parts[1])
	switch {
	case act == "once":
		cfg.once = true
	case strings.HasPrefix(act, "every="):
		n, err := strconv.ParseInt(strings.TrimPrefix(act, "every="), 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad every=N activation %q", act)
		}
		cfg.every = n
	default:
		p, err := strconv.ParseFloat(act, 64)
		if err != nil || p <= 0 || p > 1 {
			return nil, fmt.Errorf("bad activation %q (float probability, every=N, or once)", act)
		}
		cfg.prob = p
	}
	return cfg, nil
}

// hashName is FNV-1a, inlined to keep the package dependency-free.
func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Inject evaluates the failpoint: nil when the framework is disarmed, the
// point has no schedule clause, or the clause decided not to fire this
// time; otherwise the configured fault — an *Error return, a *PanicValue
// panic, or a latency sleep (which returns nil). The disarmed path is a
// single atomic load.
func (p *Point) Inject() error {
	if !armed.Load() {
		return nil
	}
	return p.inject()
}

func (p *Point) inject() error {
	p.mu.Lock()
	cfg := p.cfg
	if cfg == nil {
		p.mu.Unlock()
		return nil
	}
	p.evals.Add(1)
	cfg.evals++
	fire := true
	switch {
	case cfg.once:
		fire = !cfg.fired
		cfg.fired = true
	case cfg.every > 0:
		fire = cfg.evals%cfg.every == 0
	case cfg.prob > 0:
		fire = cfg.rng.Float64() < cfg.prob
	}
	if !fire {
		p.mu.Unlock()
		return nil
	}
	p.fires.Add(1)
	kind, sleep := cfg.kind, cfg.sleep
	p.mu.Unlock()

	switch kind {
	case KindPanic:
		panic(&PanicValue{Point: p.name})
	case KindSleep:
		time.Sleep(sleep)
		return nil
	default:
		return &Error{Point: p.name}
	}
}

// PointStats is one point's firing record since the last Enable.
type PointStats struct {
	// Evals counts Inject evaluations that reached an armed clause.
	Evals int64
	// Fires counts faults actually delivered.
	Fires int64
}

// Snapshot returns the firing record of every registered point. Points
// that were never evaluated while armed report zeros.
func Snapshot() map[string]PointStats {
	regMu.Lock()
	defer regMu.Unlock()
	out := make(map[string]PointStats, len(registry))
	for name, p := range registry {
		out[name] = PointStats{Evals: p.evals.Load(), Fires: p.fires.Load()}
	}
	return out
}
