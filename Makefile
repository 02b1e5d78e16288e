# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test lint api-audit race cover bench bench-short bench-smoke bench-pairs size surface flake race-interp race-tenant generate check-generated infer infer-check faultcheck difftest rewind-check fuzz-smoke experiments examples clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

# Protocol-soundness static analysis (see docs/LINTING.md).
lint:
	$(GO) run ./cmd/ckptvet ./...

# Exported names of the public packages that no other package's non-test
# code calls, each with the reason it stays (ckptlint's TestAPIAudit, which
# `go test ./...` also runs; it fails on a name missing from its allowlist).
api-audit:
	$(GO) test -count=1 -run TestAPIAudit -v ./ckptlint/

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One testing.B benchmark per paper table/figure, plus substrate
# micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

bench-short:
	$(GO) test -short -bench=. -benchmem ./...

# The repo benchmark (bench/, BENCHMARK.json) is a nested module, outside
# `go build ./...` and `go test ./...`: vet it and run its 1/50-size smoke
# test here, so a root API change that breaks the benchmark build is noticed.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Paired runs of one benchmark workload, parent commit against the working
# tree: N pairs alternating which side goes first, per end-to-end metric both
# medians, both quartile spreads and wins/N (scripts/benchpairs.sh; BASE=,
# PARENT=, OUT= and SEED0= pass through the environment). T=1 runs traced
# pairs and prints where a restart's time goes instead.
#   make bench-pairs W=tenants N=10 S=30
N ?= 10
S ?= 30
T ?= 0
bench-pairs:
	@test -n "$(W)" || { echo "usage: make bench-pairs W=<workload> [N=10] [S=30] [T=1]"; exit 2; }
	T=$(T) bash scripts/benchpairs.sh $(W) $(N) $(S)

# Code lines per package and in total, counted the one way simplification
# figures use: non-test, non-blank, non-comment .go lines outside bench/,
# zz_*.go excluded (scripts/size.sh; pass files to count just those).
size:
	bash scripts/size.sh

# Exported names per public package and in total, counted the one way
# surface figures use: the func and type lines of `go doc -all`
# (scripts/surface.sh).
surface:
	bash scripts/surface.sh

# Race leg over the interpreter workload and the zero-copy encode substrate.
race-interp:
	$(GO) test -race -count=1 ./internal/interp/ ./ckpt/ ./wire/ ./stablelog/

# Race leg over the multi-tenant service, its admission queue, and the parallel
# fold (includes the shared-log fault sweeps in difftest, and the dirty fold
# racing one shared reflection engine: TestFoldDirtySharedReflectEngine).
race-tenant:
	$(GO) test -race -count=1 ./ckpt/tenant/ ./ckpt/parfold/
	$(GO) test -race -count=1 -run 'TestTenant' ./internal/difftest/

# Regenerate the derived checkpoint protocol of every package that states
# its layout only in struct tags (cmd/ckptderive), then the specialized
# checkpoint routines (cmd/ckptgen), which compile the derived Catalog().
DERIVED = internal/synth internal/analysis internal/difftest internal/derivetest
generate:
	for d in $(DERIVED); do $(GO) run ./cmd/ckptderive -dir $$d || exit 1; done
	$(GO) run ./cmd/ckptderive -dir examples/editor -prefix editor.
	$(GO) run ./cmd/ckptgen -root .

check-generated:
	for d in $(DERIVED); do $(GO) run ./cmd/ckptderive -dir $$d -check || exit 1; done
	$(GO) run ./cmd/ckptderive -dir examples/editor -prefix editor. -check
	$(GO) run ./cmd/ckptgen -root . -check

# Statically infer each annotated phase's modification pattern from its
# write-set and write the generated providers (cmd/ckptinfer); infer-check
# fails when the committed zz_inferred_*.go drifted from the source.
infer:
	$(GO) run ./cmd/ckptinfer -pkg ickpt/internal/analysis -catalog 'Catalog()' -root Attributes

infer-check:
	$(GO) run ./cmd/ckptinfer -pkg ickpt/internal/analysis -catalog 'Catalog()' -root Attributes -check

# Crash-consistency suite: the fault-injection harness plus the stablelog
# power-cut sweep and durability regressions (see docs/DURABILITY.md; faults
# inside a gathered group-commit write are stablelog/gather_test.go),
# the epoch commit/abort session, the parallel fold, the multi-tenant
# service, and the differential harness (including the log and tenant fault
# sweeps), under the race detector and without cached results.
FAULTCHECK_PKGS = ./internal/faultfs/ ./stablelog/ ./ckpt/ ./ckpt/parfold/ ./ckpt/tenant/ ./internal/difftest/
faultcheck:
	$(GO) test -race -count=1 $(FAULTCHECK_PKGS)

# Flake hunt: N runs each of tier-1 and of faultcheck's packages, with
# -count=1 -shuffle=on; every failing run's output is kept under out/flake/
# (scripts/flake.sh).
#   make flake N=50
flake:
	GO=$(GO) bash scripts/flake.sh $(N) $(FAULTCHECK_PKGS)

# Cross-engine differential equivalence suite: every engine, sequential and
# parallel, byte-level and rebuild-level (see internal/difftest).
difftest:
	$(GO) test -count=1 -v -run 'TestDifferential' ./internal/difftest/

# Time-travel suite: rewind equivalence for every trace x engine x strategy
# (RewindTo(e) byte-identical to the live state at epoch e, before and after
# retention), the retention/rewind unit and fault sweeps (post-rename
# Compact faults, retention crash sweep, aborted-epoch skipping), retention
# and rewind per stream of a shared log against the single-stream log, and
# the binomial schedule's O(log T) bounds: retained segments, a retained byte
# share that shrinks with the history, and short rewind chains
# (TestRetainBinomialSchedule, TestRetainBinomialSublinear), and the
# rebuilder's delta-base checks, which replay runs a batch at a time
# (TestApplyRunReportsFirstFailingDelta, TestRebuilderDelta*), and a run
# extending the live state at the cost of its own records (TestExtendingRun*).
rewind-check:
	$(GO) test -count=1 -run 'TestRewind|TestRetain|TestCompact|TestRecoverRejectsIncoherent|TestValidateRun|TestEpochIndex|TestApplyRun|TestExtendingRun|TestRebuilderDelta|TestReadRun|TestCrashSweepRetain|TestVerifyIncoherentChain|TestRetainPerStream|TestStreamIndex|TestVerifyShared' ./internal/difftest/ ./stablelog/ ./ckpt/ ./ckpt/tenant/ ./cmd/ckptinspect/

# Short coverage-guided fuzzing of the wire decoder, the checkpoint body
# decoder, the rebuilder, the log's Open scan against its per-segment
# reference, and recovery end to end (bodies or a whole log image through
# Build, in memory bounded by the input) (go test -fuzz runs one target at a
# time). The recovery targets' seeds are whole trace replays of up to 50 KB,
# which the fuzzer would otherwise spend a minute minimizing per new input.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecoder -fuzztime $(FUZZTIME) ./wire/
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./wire/
	$(GO) test -run '^$$' -fuzz FuzzDeltaRoundTrip -fuzztime $(FUZZTIME) ./wire/
	$(GO) test -run '^$$' -fuzz FuzzDeltaBaseHash4 -fuzztime $(FUZZTIME) ./wire/
	$(GO) test -run '^$$' -fuzz FuzzInspectBody -fuzztime $(FUZZTIME) ./ckpt/
	$(GO) test -run '^$$' -fuzz 'FuzzRebuilderApply$$' -fuzztime $(FUZZTIME) ./ckpt/
	$(GO) test -run '^$$' -fuzz FuzzRebuilderApplyRun -fuzztime $(FUZZTIME) ./ckpt/
	$(GO) test -run '^$$' -fuzz FuzzInterpEval -fuzztime $(FUZZTIME) ./internal/interp/
	$(GO) test -run '^$$' -fuzz FuzzOpenScan -fuzztime $(FUZZTIME) ./stablelog/
	$(GO) test -run '^$$' -fuzz 'FuzzRecoverBuild$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/difftest/
	$(GO) test -run '^$$' -fuzz FuzzRecoverBuildLog -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/difftest/

# Paper-scale evaluation: prints every table/figure and writes CSVs.
experiments:
	$(GO) run ./cmd/ckptbench -experiment all -n 20000 -scale 4 -reps 7 -warmup 2 -csv results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/editor
	$(GO) run ./examples/specialize
	$(GO) run ./examples/analysisengine

clean:
	rm -rf results
