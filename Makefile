GO ?= go

.PHONY: all check fmt vet build test race bench benchsmoke chaos fuzzsmoke conform conformguard sweepbench profbench servebench kernelbench scalebench perfsmoke papergolden servesmoke tracesmoke benchdiff baseline docscheck ledgersmoke clean

all: check

# check runs the full verification gate: formatting, static analysis,
# build, package-doc coverage, the race-enabled test suite, one pass of
# every root benchmark, the chaos (fault-injection) suite, a fuzz smoke pass over the fault-plan parser,
# the simulator conformance suite, the emu-coverage guard, the sweep,
# profiler, job-server and fused-kernel throughput measurements, the
# benchmark regression diff against the committed baselines, the
# repository benchmark's own test suite, the paper-scale Table I goldens,
# and the sarserve end-to-end and request-tracing smoke tests.
check: fmt vet build docscheck race benchsmoke chaos fuzzsmoke conform conformguard sweepbench profbench servebench kernelbench scalebench benchdiff perfsmoke papergolden servesmoke tracesmoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# benchsmoke runs every root benchmark (bench_test.go) once at the
# reduced -short scale. No test runs them, so without it a broken
# benchmark would pass the gate.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short .

# chaos runs the fault-injection suite under the race detector: the
# deterministic injector unit tests, the golden chaos kernel runs with
# pinned retry/remap counts, the fault conformance and tamper-detection
# tests, and the CLI exit-code contract tests.
chaos:
	$(GO) test -race -count=1 ./internal/fault
	$(GO) test -race -count=1 -run 'Chaos|Fault|EmptyPlan' \
		./internal/emu ./internal/kernels ./internal/conform \
		./cmd/epirun ./cmd/sarprof

# fuzzsmoke gives the fault-plan parser fuzzer a short budget on top of
# replaying its committed corpus.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzParsePlan -fuzztime 10s ./internal/fault

# conform runs the simulator conformance harness under the race detector:
# the invariant checker over real kernel runs, the analytic differential
# microbenchmarks (exact closed-form cycle counts), and the seeded
# random-program determinism suite.
conform:
	$(GO) test -race -count=1 ./internal/conform

# conformguard fails when emulator model code changes without a
# conformance or emu test riding along (range: CONFORM_RANGE, default
# HEAD~1..HEAD).
conformguard:
	./scripts/checkconform.sh

# sweepbench exercises the concurrent sweep engine under the race
# detector and records its throughput as out/BENCH_sweep.json.
sweepbench:
	SWEEPBENCH_OUT=$(CURDIR)/out $(GO) test -race -run TestSweep -count=1 ./internal/sweep

# profbench runs the trace-driven profiler over a traced 16-core FFBP
# run and records its throughput as out/BENCH_profile.json.
profbench:
	PROFBENCH_OUT=$(CURDIR)/out $(GO) test -race -run TestProfile -count=1 ./internal/profile

# servebench measures the job server's saturation behavior (three
# offered loads plus a warm-cache rerun) under the race detector and
# records it as out/BENCH_serve.json.
servebench:
	SERVEBENCH_OUT=$(CURDIR)/out $(GO) test -race -run TestServeSaturation -count=1 ./internal/serve

# kernelbench measures the fused back-projection hot paths against their
# retained references at paper scale and records the result as
# out/BENCH_kernels.json. It runs without the race detector on purpose:
# the envelope's pixels/sec leaves are per-core throughput measurements
# and -race would distort them several-fold. The fused paths' correctness
# under -race is covered by the equivalence suites in the gbp and ffbp
# packages, which `race` already runs.
kernelbench:
	KERNELBENCH_OUT=$(CURDIR)/out $(GO) test -run TestKernelThroughput -count=1 ./internal/bench

# scalebench runs both parallel kernels across the 64-, 256- and
# 1024-core device generations (the last a 2x2 eLink-bridged chip array)
# and records modeled time, speedup and energy as out/BENCH_scale.json.
# Every leaf is deterministic simulator output, so the whole envelope
# gates in benchdiff. It runs without the race detector: the sweep is
# pure simulation whose -race coverage lives in the kernels and conform
# suites, and -race would multiply the 1024-core run's wall-clock.
scalebench:
	SCALEBENCH_OUT=$(CURDIR)/out $(GO) test -run TestScaleBench -count=1 ./internal/bench

# perfsmoke runs the repository benchmark's test suite (perfbench is its
# own module, so ./... at the root does not reach it): the metric and
# scheduling unit tests, TestWorkloadsSmoke (every workload once, with
# af-stream scores, repeat counts and serve envelopes checked) and the
# BENCHMARK.json consistency check. It runs without the race detector:
# the workloads are the same simulations the race suite already covers,
# and -race would multiply their wall-clock.
perfsmoke:
	cd perfbench && $(GO) test -count=1 ./...

# papergolden runs the repository benchmark's table1-paper workload once
# at paper scale and fails unless its result line reports "correct":true:
# every Table I row's modeled seconds, both energy ratios and each row's
# charged-op count equal the goldens in perfbench/golden.go exactly. The
# run script exits 0 even when a check fails, so the target reads the
# result, which is the last line of the run's output.
papergolden:
	@line=$$(bash perfbench/run.sh --workload table1-paper --seconds 1 --trace 0 | tail -n 1); \
	echo "$$line"; \
	case "$$line" in *'"correct":true'*) ;; \
	*) echo "papergolden: paper-scale Table I differs from perfbench/golden.go"; exit 1;; esac

# servesmoke is the sarserve end-to-end contract: build the daemon,
# submit a real job over HTTP (must answer 200 done), assert the run
# ledger recorded it, and SIGTERM must drain cleanly.
servesmoke:
	./scripts/servesmoke.sh

# tracesmoke is the request-tracing contract: a live sarserve submission
# must answer with a trace ID, and `sarlog trace <id>` must render a
# span tree covering admission, queue wait, batch formation, execution
# and the ledger write.
tracesmoke:
	./scripts/tracesmoke.sh

# benchdiff gates every envelope the *bench targets recorded in out/
# against its committed BENCH_*.json baseline. Modeled simulator output
# (cycles, span and segment counts, job counts) is deterministic, so it
# must match exactly (-tol 0): a simulator speedup moves none of it. The
# leaves bench.Advisory lists for the envelope — wall-clock and host
# shape, which legitimately vary between machines — are advisory:
# printed when they move, never a failure.
benchdiff:
	for f in BENCH_*.json; do \
		$(GO) run ./scripts/benchdiff.go -tol 0 $$f out/$$f || exit 1; \
	done

# baseline refreshes the committed envelopes from freshly recorded runs.
# Use after an intentional change to modeled results, then commit the
# updated BENCH_*.json files.
baseline: sweepbench profbench servebench kernelbench scalebench
	for f in BENCH_*.json; do cp out/$$f $$f || exit 1; done

# docscheck fails when any package (cmd/ binaries included) lacks a doc
# comment, or when the serving layer exports an undocumented identifier.
docscheck:
	./scripts/checkdocs.sh

# ledgersmoke is the determinism contract of the run ledger end to end:
# two identical epirun invocations must record manifests whose every
# cycle and energy leaf agrees exactly (sarlog diff -gate exits 0), with
# the advisory id/start rows proving the delta table was not empty. Two
# identical benchtab kernels runs must pass the same gate: their
# envelope is wall-clock throughput, and only the leaves bench.Advisory
# lists for it may move.
ledgersmoke:
	rm -rf out/ledgersmoke
	$(GO) run ./cmd/epirun -kernel ffbp-par -small -ledger out/ledgersmoke
	$(GO) run ./cmd/epirun -kernel ffbp-par -small -ledger out/ledgersmoke
	$(GO) run ./cmd/sarlog diff -dir out/ledgersmoke -gate @-2 @-1 > out/ledgersmoke.diff; \
		status=$$?; cat out/ledgersmoke.diff; exit $$status
	@grep -q '(advisory)' out/ledgersmoke.diff || \
		{ echo "ledgersmoke: delta table empty"; exit 1; }
	@grep -q ' 0 regressions' out/ledgersmoke.diff || \
		{ echo "ledgersmoke: non-advisory divergence between identical runs"; exit 1; }
	$(GO) run ./cmd/benchtab -exp kernels -small -ledger out/ledgersmoke
	$(GO) run ./cmd/benchtab -exp kernels -small -ledger out/ledgersmoke
	$(GO) run ./cmd/sarlog diff -dir out/ledgersmoke -gate @-2 @-1

clean:
	rm -rf out
