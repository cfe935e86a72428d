GO ?= go
BENCH_DATE ?= $(shell date +%Y-%m-%d)
BENCH_OUT  ?= BENCH_$(BENCH_DATE).json

.PHONY: all vet build test race bench bench-smoke examples-smoke ci protocols dist-smoke jobd-smoke chaos-smoke crash-smoke obs-smoke fuzz-smoke perfbench-build

all: ci

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the execution engine (whose buffers a restarted engine
# reuses), the parallel search layer (worker-pool Explore/Fuzz/Stress), the
# distributed coordinator/worker protocol, and the checking daemon — the
# ./internal/jobd/... glob includes the crashfs power-fail simulator.
# Runs at GOMAXPROCS 1, 2 and 4, so the determinism and divergence suites
# see more than one core count.
race:
	$(GO) test -race -cpu 1,2,4 ./internal/sched/... ./internal/trace/... ./internal/harness/... ./internal/dist/... ./internal/jobd/...

# Full benchmark suite; takes a while. Archives the go-test JSON event
# stream as BENCH_<date>.json — one file per run is the perf trajectory.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count=1 -json ./... > $(BENCH_OUT)
	@grep -o '"Output":".*ns/op[^"]*"' $(BENCH_OUT) | sed -e 's/"Output":"//' -e 's/\\t/\t/g' -e 's/\\n"//' || true
	@echo wrote $(BENCH_OUT)

# One iteration of every benchmark: catches bit-rot without the cost.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Run every example main; the revisionist demo's output must match its
# golden file byte for byte (every run in it is seeded).
examples-smoke:
	@for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done
	$(GO) run ./examples/revisionist | diff - examples/revisionist/testdata/output.golden

# Print the protocol registry; doubles as a smoke test that registration
# side effects are wired.
protocols:
	$(GO) run ./cmd/simulate -list

# Distributed-search smoke: one coordinator + two localhost TCP workers on
# the acceptance pair, byte-compared against the single-process report.
# Like `protocols`, a separate CI step rather than part of `ci`.
dist-smoke:
	$(GO) run ./cmd/distcheck -smoke -protocol firstvalue -n 4 -prune
	$(GO) run ./cmd/distcheck -smoke -protocol kset -n 4 -k 3 -prune
	$(GO) run ./cmd/distcheck -smoke -protocol firstvalue -n 4 -prune -symmetry
	$(GO) run ./cmd/distcheck -smoke -protocol kset -n 4 -k 3 -prune -symmetry

# Checking-daemon smoke: one checkd with two TCP workers runs two protocol
# jobs concurrently on the shared fleet, each report byte-compared against
# its single-process run. A separate CI step, like dist-smoke.
jobd-smoke:
	$(GO) run ./cmd/checkd -smoke

# Fault-tolerance smoke: the jobd scenario under a seeded fault schedule —
# one worker crashes and reconnects, one hangs until the heartbeat detector
# retires it, one needs several dial attempts — and every report must still
# be byte-identical to its single-process run. Two seeds, two schedules.
chaos-smoke:
	$(GO) run ./cmd/checkd -smoke -chaos 1
	$(GO) run ./cmd/checkd -smoke -chaos 20260808

# Observability smoke: the jobd scenario with the full flight recorder on —
# live registry, journal on disk, instrumented workers, admin HTTP listener.
# One real job end to end, then every endpoint must answer, every required
# metric series must be present, the per-job trace must span the lifecycle,
# and the instrumented report must stay byte-identical to the plain run.
obs-smoke:
	$(GO) run ./cmd/checkd -smoke -admin 127.0.0.1:0

# Crash-consistency smoke: the exhaustive power-fail matrix (every
# filesystem op × every meaningful tear, two seeds, both sync policies)
# plus a real kill -9 of a running checkd whose restarted process must
# resume the journaled snapshot and produce a byte-identical report.
crash-smoke:
	$(GO) test ./internal/jobd -run TestCrashMatrix -count=1
	$(GO) run ./cmd/checkd -smoke -kill

# Fuzz smoke: ten seconds of coverage-guided fuzzing on each decoder of
# untrusted bytes — the job journal loader, the witness replay path and the
# wire frame reader.
fuzz-smoke:
	$(GO) test ./internal/jobd -run '^$$' -fuzz '^FuzzQueueLoad$$' -fuzztime 10s
	$(GO) test ./internal/harness -run '^$$' -fuzz '^FuzzWitness$$' -fuzztime 10s
	$(GO) test ./internal/dist/wire -run '^$$' -fuzz '^FuzzWireRecv$$' -fuzztime 10s

# The benchmark in perfbench/ is its own module, which a root `go build ./...`
# skips. Building it here catches an API change that breaks it.
perfbench-build:
	cd perfbench && GOFLAGS= GOPROXY=off GOWORK=off $(GO) build -o /dev/null .

ci: vet build test race bench-smoke examples-smoke
