GO ?= go
BENCH_DATE ?= $(shell date +%Y-%m-%d)
BENCH_OUT  ?= BENCH_$(BENCH_DATE).json

.PHONY: all vet build test race bench bench-smoke examples-smoke ci protocols smoke dist-smoke jobd-smoke chaos-smoke crash-smoke obs-smoke fuzz-smoke perfbench-build loc

all: ci

# vet also fails on any file gofmt would rewrite, listing them.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: files need formatting:"; echo "$$out"; exit 1; fi

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

# The service smokes, one CI step apart from `ci`. Every one byte-compares
# each report it gets against the single-process run through one function,
# harness.MatchReport.
smoke: dist-smoke jobd-smoke chaos-smoke obs-smoke

# Distributed-search smoke: one coordinator + two localhost TCP workers on
# the acceptance pair, byte-compared against the single-process report. The
# unpruned legs run checkpointed subtrees: an exhausted search, one that
# stops at the violation cutoff, and one cut by the run budget with
# violations found before it. The last two legs are pruned searches cut past
# their first subtree: by the run budget (100 of 213 runs, 46 violations)
# and by the violation cutoff (20 violations across several subtrees).
dist-smoke:
	$(GO) run ./cmd/distcheck -smoke -protocol firstvalue -n 4 -prune
	$(GO) run ./cmd/distcheck -smoke -protocol kset -n 4 -k 3 -prune
	$(GO) run ./cmd/distcheck -smoke -protocol firstvalue -n 4 -prune -symmetry
	$(GO) run ./cmd/distcheck -smoke -protocol kset -n 4 -k 3 -prune -symmetry
	$(GO) run ./cmd/distcheck -smoke -protocol consensus -n 3 -depth 10
	$(GO) run ./cmd/distcheck -smoke -protocol firstvalue-consensus -n 3 -depth 9 -maxruns 3000
	$(GO) run ./cmd/distcheck -smoke -protocol firstvalue-consensus -n 3 -depth 9 -maxruns 40 -maxviol 30
	$(GO) run ./cmd/distcheck -smoke -protocol firstvalue-consensus -n 3 -depth 9 -prune -maxruns 100 -maxviol 1000
	$(GO) run ./cmd/distcheck -smoke -protocol firstvalue-consensus -n 3 -depth 9 -prune -maxviol 20

# Checking-daemon smoke: the loopback scenario every checkd smoke builds on.
# One in-process checkd with two TCP workers runs three protocol jobs
# concurrently on the shared fleet; each report is byte-compared against its
# single-process run, and the violating job's witness must list every
# violation.
jobd-smoke:
	$(GO) run ./cmd/checkd -smoke

# Fault-tolerance smoke: the loopback scenario with fault-injected workers
# and a short heartbeat — one worker crashes and reconnects, one hangs until
# the heartbeat detector retires it, one needs several dial attempts — and
# every report and witness must still match the single-process run. Two
# seeds, two schedules.
chaos-smoke:
	$(GO) run ./cmd/checkd -smoke -chaos 1
	$(GO) run ./cmd/checkd -smoke -chaos 20260808

# Observability smoke: the loopback scenario with the full flight recorder
# on — live registry, journal on disk, instrumented workers, admin HTTP
# listener. One real job end to end: the instrumented report must stay
# byte-identical to the plain run, every endpoint must answer, every
# required metric series must be present, and the per-job trace must span
# the lifecycle.
obs-smoke:
	$(GO) run ./cmd/checkd -smoke -admin 127.0.0.1:0

# Crash-consistency smoke: the exhaustive power-fail matrix (every
# filesystem op × every meaningful tear, two seeds, both sync policies)
# plus a real kill -9 of a running checkd child process whose restarted
# process must resume the journaled snapshot; the resumed report gets the
# loopback scenario's byte-identity and witness check. Part of `ci`: the
# kill -9 leg is the only check of the journal across a real SIGKILL.
crash-smoke:
	$(GO) test ./internal/jobd -run TestCrashMatrix -count=1
	$(GO) run ./cmd/checkd -smoke -kill

# Fuzz smoke: ten seconds of coverage-guided fuzzing on each decoder of
# untrusted bytes — the job journal loader, the witness replay path, job
# admission and the wire frame reader.
fuzz-smoke:
	$(GO) test ./internal/jobd -run '^$$' -fuzz '^FuzzQueueLoad$$' -fuzztime 10s
	$(GO) test ./internal/harness -run '^$$' -fuzz '^FuzzWitness$$' -fuzztime 10s
	$(GO) test ./internal/harness -run '^$$' -fuzz '^FuzzValidateJob$$' -fuzztime 10s
	$(GO) test ./internal/dist/wire -run '^$$' -fuzz '^FuzzWireRecv$$' -fuzztime 10s

# The benchmark in perfbench/ is its own module, which a root `go build ./...`
# and `go vet ./...` skip. Building and vetting it (also part of `ci`) catches
# an API change that breaks it.
perfbench-build:
	cd perfbench && GOFLAGS= GOPROXY=off GOWORK=off $(GO) build -o /dev/null .
	cd perfbench && GOFLAGS= GOPROXY=off GOWORK=off $(GO) vet .

# Non-test Go lines outside the perfbench module: the code-size figure a
# change reports.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' -print0 | xargs -0 cat | wc -l

ci: vet build test race bench-smoke examples-smoke perfbench-build crash-smoke
