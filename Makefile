GO ?= go

.PHONY: build test race race-matrix bench benchtest vet lint fuzz allocgate servegate obsgate drivercover all

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The determinism invariants demand identical results at any processor
# count; racing at 1 and 4 gives the detector two very different
# schedules to work with (see DESIGN.md §11). GOMAXPROCS is not a test
# cache key, so without -count=1 the second leg replays the first.
race-matrix:
	GOMAXPROCS=1 $(GO) test -race -count=1 ./...
	GOMAXPROCS=4 $(GO) test -race -count=1 ./...

vet:
	$(GO) vet ./...

# xprsvet: the seven repo-specific determinism analyzers (vclockpurity,
# obsnoclock, maporder, atomicmix, poollifetime, policypurity,
# tracegate) over every package of the module, after the stock vet
# checks — the same two commands CI runs. See DESIGN.md §11/§16.
lint: vet
	$(GO) run ./cmd/xprsvet ./...

# Native fuzzing, one target at a time (go test -fuzz takes one). The
# seed corpora under testdata/fuzz/ already run in every `go test`; this
# searches past them. Minimization is capped per input so a slow target
# keeps fuzzing instead of shrinking one finding for a minute.
fuzz:
	$(GO) test ./internal/exec -run '^$$' -fuzz '^FuzzTempFinalize$$' -fuzztime 30s -fuzzminimizetime 1000x

# The one wall-clock measurement system: five workloads, nine bounded
# end-to-end metrics, an oracle on every op (bench/README.md).
bench:
	bash bench/run.sh

# The nested benchmark module (bench/, its own go.mod) is invisible to
# the root `go build ./...`; its tests are what catch a root API change
# that breaks it. One iteration of the executor's kernel benchmarks
# (kernel_bench_test.go: the hash-join kernels bench/'s probes price)
# rides along so they cannot rot either.
benchtest:
	cd bench && $(GO) test ./...
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/exec

# Allocation gate: the executor hot path must stay under the committed
# allocs/op budget (see TestPipelineAllocGate in bench_test.go), filling
# a generator-backed page must allocate nothing and one workload.Generate
# stay under its budget (TestScanAllocGate in internal/workload), and a
# scan materialized into a temp must stay under its bytes per row
# (TestTempBytesGate in internal/exec: temps sized from the estimate,
# vectors grown by doubling), and a controller decision must stay under
# its allocations per decision (TestDecisionAllocGate in internal/core:
# explanations are Reason values, rendered only when printed), and a
# warm page driver's launch and §2.4 round must allocate nothing when
# the degree holds or falls, at most one assignment per added slave when
# it rises (TestAdjustAllocGate in internal/exec).
allocgate:
	XPRS_ALLOC_GATE=1 $(GO) test -run TestPipelineAllocGate -v .
	XPRS_ALLOC_GATE=1 $(GO) test -run TestScanAllocGate -v ./internal/workload
	XPRS_ALLOC_GATE=1 $(GO) test -run TestTempBytesGate -v ./internal/exec
	XPRS_ALLOC_GATE=1 $(GO) test -run TestDecisionAllocGate -v ./internal/core
	XPRS_ALLOC_GATE=1 $(GO) test -run TestAdjustAllocGate -v ./internal/exec

# Serving gate: the scheduler's Submit fast path must stay under its
# allocs/op budget (see TestIntakeAllocGate in sched_bench_test.go), and
# a whole served session — launches and adjustment rounds included —
# under its allocs/session budget on a serve_steady-shaped run
# (TestServeSessionAllocGate in bench_test.go).
servegate:
	XPRS_ALLOC_GATE=1 $(GO) test -run TestIntakeAllocGate -v ./internal/exec
	XPRS_ALLOC_GATE=1 $(GO) test -run TestServeSessionAllocGate -v .

# Observability gate: the same fast path with sampled tracing and
# telemetry live must stay under its allocs/op budget — "observation is
# free" priced per submit (see TestObsAllocGate in sched_bench_test.go).
obsgate:
	XPRS_ALLOC_GATE=1 $(GO) test -run TestObsAllocGate -v ./internal/exec

# Driver coverage gate: every function of the partitioning drivers —
# page partitioning (Figure 5, pagepart.go), interval partitioning
# (Figure 6, intervalpart.go) and the nestloop's rescans (nestloop.go) —
# and of admission (admission.go, every branch of admission.next's
# order switch) runs in some internal/exec test. A function at 0.0%
# fails the gate.
drivercover:
	@prof=$$(mktemp) && trap 'rm -f "$$prof"' EXIT && \
	$(GO) test -count=1 -coverprofile="$$prof" ./internal/exec && \
	$(GO) tool cover -func="$$prof" | awk ' \
		$$1 ~ /\/(pagepart|intervalpart|nestloop|admission)\.go:/ { n++; if ($$NF == "0.0%") { print "uncovered: " $$0; bad = 1 } } \
		END { if (n == 0) { print "drivercover: no driver functions in the profile"; exit 1 } \
		      if (bad) exit 1; printf "drivercover: %d driver and admission functions, none at 0.0%%\n", n }'
