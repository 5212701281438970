GO ?= go

.PHONY: build test vet bench race examples ci chaos fuzz figures fmtcheck apicheck figcheck

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

# Fuzz the six targets briefly: the parser (never panic, print/re-parse),
# the translate differential oracle (the paper's baseline machinery vs the
# optimized default, byte-identical output, interpreter-checked, printed
# outputs re-parsed), the parser and printer against their reference
# implementations, the binary IR decoder of memo snapshots (never panic,
# accepted input verifies and re-encodes), the liveness checker with its
# accepted-set memo against the fixpoint oracle, and the interference
# queries against their per-query derivations. The committed seed corpus
# lives in outofssa/testdata/fuzz/.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME) ./outofssa
	$(GO) test -run '^$$' -fuzz 'FuzzTranslate$$' -fuzztime $(FUZZTIME) ./outofssa
	$(GO) test -run '^$$' -fuzz 'FuzzParseMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/ir
	$(GO) test -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/ir
	$(GO) test -run '^$$' -fuzz 'FuzzLiveCheck$$' -fuzztime $(FUZZTIME) ./internal/livecheck
	$(GO) test -run '^$$' -fuzz 'FuzzQueriesMatchReference$$' -fuzztime $(FUZZTIME) ./internal/interference

figures:
	$(GO) run ./cmd/ssabench -fig all

# Source gates: every file gofmt-clean, and commands and examples import
# only the public repro/outofssa API, never repro/internal.
fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

apicheck:
	@if grep -rn "repro/internal" cmd/ examples/; then \
		echo "commands and examples must import only repro/outofssa"; \
		exit 1; \
	fi

# Paper figures: Figures 5 and 7 must print identical bytes at 1 and 4
# workers (the batch driver is deterministic), and Figure 6 must run.
figcheck:
	$(GO) build -o /tmp/ssabench ./cmd/ssabench
	for fig in 5 7; do \
		/tmp/ssabench -fig $$fig -scale 0.3 -workers 1 > /tmp/fig$$fig.w1 && \
		/tmp/ssabench -fig $$fig -scale 0.3 -workers 4 > /tmp/fig$$fig.w4 && \
		cmp /tmp/fig$$fig.w1 /tmp/fig$$fig.w4 || exit 1; \
	done
	/tmp/ssabench -fig 6 -scale 0.05 -reps 1 > /dev/null

ci: fmtcheck vet build test race examples figcheck apicheck chaos
