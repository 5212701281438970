GO ?= go

.PHONY: build test vet bench race examples ci chaos fuzz figures bench-liveness bench-coalesce bench-translate bench-translate-check bench-scale bench-serve bench-memo bench-all bench-compare bench-store-list

# Scale of the liveness trajectory corpus; CI uses the short default, local
# runs can pass LIVENESS_SCALE=1 for the full thousands-of-blocks corpus.
LIVENESS_SCALE ?= 0.05
# Scale of the coalescing trajectory corpus (same convention).
COALESCE_SCALE ?= 0.05
# Scale of the end-to-end translate trajectory corpus (same convention).
# The committed BENCH_translate.json baseline is recorded at this scale, so
# the bench-compare gate compares like with like.
TRANSLATE_SCALE ?= 0.05
# Scale of the multicore batch corpus (same convention); the worker sweep
# itself is fixed at 1..32 workers x GOGC {off,100,400}.
SCALE_SCALE ?= 0.05
# Parallel-efficiency floor of the scale gate (at 8 workers, normalized by
# available cores; 0 disables).
SCALE_MINEFF ?= 0.6
# Offered-load sweep of the serving-latency trajectory (concurrent
# closed-loop clients driving a self-hosted daemon over loopback HTTP),
# the measurement window per point, and the corpus size.
SERVE_LOADS ?= 1,2,4
SERVE_DURATION ?= 2s
SERVE_FUNCS ?= 64
# Memoization trajectory: base functions, near-duplicate clones per base,
# best-of repetitions per timed pass, and the daemon-traffic point.
MEMO_FUNCS ?= 12
MEMO_CLONES ?= 3
MEMO_REPS ?= 3
MEMO_LOADS ?= 2
MEMO_DURATION ?= 1s
# Measurement passes per trajectory run: every metric collects BENCH_COUNT
# samples so the compare gate reasons about medians, not single points.
BENCH_COUNT ?= 3
# Persistent bench store directory; every bench-* run appends its envelope
# here. `make bench-store-list` shows the accumulated runs.
BENCH_STORE ?= .ssabench
# Baseline reference for bench-compare: a committed BENCH_<traj>.json file
# (the default, substituted per trajectory) or any store reference
# (a snapshot name, an id prefix, latest:<trajectory>).
BENCH_BASELINE ?=
# Extra compare flags, e.g. BENCH_COMPARE_FLAGS=-allow-machine-mismatch
# when gating against a baseline recorded on different hardware.
BENCH_COMPARE_FLAGS ?=

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench . -benchmem ./...

race:
	$(GO) test -race ./...

examples:
	$(GO) build ./examples/...

# Chaos suite: a self-hosted daemon under mixed traffic with seeded
# failpoints firing in every layer, run under the race detector. CI uses
# CHAOS_DURATION=15s; the default keeps local runs fast.
CHAOS_DURATION ?= 2s
chaos:
	SSAD_CHAOS_DURATION=$(CHAOS_DURATION) $(GO) test -race -count=1 -run 'TestChaos$$' -v ./outofssa/serve

# Fuzz the five targets briefly: the parser (never panic, print/re-parse),
# the translate differential oracle (reference vs optimized machinery,
# interpreter-checked, printed outputs re-parsed), the parser and printer
# against their reference implementations, the binary IR decoder of
# memo snapshots (never panic, accepted input verifies and re-encodes),
# and the liveness checker with its accepted-set memo against the
# fixpoint oracle. The committed seed corpus lives in outofssa/testdata/fuzz/.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME) ./outofssa
	$(GO) test -run '^$$' -fuzz 'FuzzTranslate$$' -fuzztime $(FUZZTIME) ./outofssa
	$(GO) test -run '^$$' -fuzz 'FuzzParseMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/ir
	$(GO) test -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/ir
	$(GO) test -run '^$$' -fuzz 'FuzzLiveCheck$$' -fuzztime $(FUZZTIME) ./internal/livecheck

figures:
	$(GO) run ./cmd/ssabench -fig all

# Every trajectory goes through the same path: measure BENCH_COUNT passes
# into one report envelope, write the committed-format BENCH_<traj>.json,
# and append the envelope to the persistent store. Gating is a separate
# step (bench-compare / bench-<traj>-check) over the store or the
# committed files.

# Benchmark the worklist liveness engine against the pre-worklist baseline
# on the synthetic large-CFG corpus.
bench-liveness:
	$(GO) run ./cmd/ssabench -fig liveness -scale $(LIVENESS_SCALE) -count $(BENCH_COUNT) \
		-store $(BENCH_STORE) -out BENCH_liveness.json

# Benchmark the optimized interference query path (binary-search LiveAfter,
# packed def-point keys, pooled congruence scratch) against the kept
# reference path on the φ/copy-dense corpus.
bench-coalesce:
	$(GO) run ./cmd/ssabench -fig coalesce -scale $(COALESCE_SCALE) -count $(BENCH_COUNT) \
		-store $(BENCH_STORE) -out BENCH_coalesce.json

# Benchmark end-to-end clone+translate steady state: the pooled-scratch and
# slab allocation path against the kept pre-pooling reference, across all
# Figure 5 strategies.
bench-translate:
	$(GO) run ./cmd/ssabench -fig translate -scale $(TRANSLATE_SCALE) -count $(BENCH_COUNT) \
		-store $(BENCH_STORE) -out BENCH_translate.json

# Same measurement, gated in-process against the committed baseline under
# the trajectory's standing policies (allocs/op within 20%, quality never
# worse). The fresh measurement goes to BENCH_translate.ci.json so the
# committed baseline is never silently replaced by a within-slack
# regression.
bench-translate-check:
	$(GO) run ./cmd/ssabench -fig translate -scale $(TRANSLATE_SCALE) -count $(BENCH_COUNT) \
		-store $(BENCH_STORE) -against BENCH_translate.json $(BENCH_COMPARE_FLAGS) -out BENCH_translate.ci.json

# Sweep the work-stealing batch driver over workers x GOGC on the batch
# corpus; the parallel-efficiency floor at 8 workers gates via the scale
# trajectory's standing policies.
bench-scale:
	$(GO) run ./cmd/ssabench -fig scale -scale $(SCALE_SCALE) -count $(BENCH_COUNT) -mineff $(SCALE_MINEFF) \
		-store $(BENCH_STORE) -out BENCH_scale.json

# Drive a self-hosted ssad over loopback HTTP at a sweep of offered-load
# points and record the serving-latency trajectory (throughput + latency
# quantiles per concurrency level); the serve policies fail the target on
# hard failures or incoherent quantiles.
bench-serve:
	$(GO) run ./cmd/ssaload -loads $(SERVE_LOADS) -duration $(SERVE_DURATION) -funcs $(SERVE_FUNCS) \
		-store $(BENCH_STORE) -out BENCH_serve.json

# Measure content-hash translation memoization on a near-duplicate corpus:
# uncached / memo-cold / memo-warm batch passes, the differential oracle on
# every case x strategy row, and a daemon-traffic point with the server's
# memo hit rate. The memo policies fail the target unless the warm pass is
# >=2x faster than cold with a full hit rate and every oracle row is clean.
bench-memo:
	$(GO) run ./cmd/ssaload -dup -funcs $(MEMO_FUNCS) -clones $(MEMO_CLONES) -reps $(MEMO_REPS) \
		-loads $(MEMO_LOADS) -duration $(MEMO_DURATION) -store $(BENCH_STORE) -out BENCH_memo.json

# All six trajectories through the shared path in one command.
bench-all: bench-liveness bench-coalesce bench-translate bench-scale bench-serve bench-memo

# Statistical A/B gate: compare the latest stored run of TRAJ against the
# baseline (default: the committed BENCH_$(TRAJ).json) under the
# trajectory's standing policies; exits nonzero on any violation.
#
#	make bench-translate bench-compare TRAJ=translate
#	make bench-compare TRAJ=scale BENCH_BASELINE=v1-scale-snapshot
TRAJ ?= translate
bench-compare:
	$(GO) run ./cmd/ssabench compare -store $(BENCH_STORE) \
		-baseline $(or $(BENCH_BASELINE),BENCH_$(TRAJ).json) -candidate latest:$(TRAJ) \
		-mineff $(SCALE_MINEFF) $(BENCH_COMPARE_FLAGS)

bench-store-list:
	$(GO) run ./cmd/ssabench store list -store $(BENCH_STORE)

ci: vet build test race examples chaos bench-memo
