// Package revisionist's root benchmark harness: one benchmark family per
// experiment in EXPERIMENTS.md (T1, T2, E3–E8). Run with:
//
//	go test -bench=. -benchmem
package revisionist

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"revisionist/internal/algorithms"
	"revisionist/internal/augsnap"
	"revisionist/internal/bounds"
	"revisionist/internal/core"
	"revisionist/internal/harness"
	"revisionist/internal/nst"
	"revisionist/internal/obs"
	"revisionist/internal/proto"
	"revisionist/internal/protocol"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
	"revisionist/internal/trace"
)

// BenchmarkBoundsTable (T1) computes the full Corollary 33 grid for n <= 64.
func BenchmarkBoundsTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 2; n <= 64; n++ {
			for k := 1; k < n; k++ {
				for x := 1; x <= k; x++ {
					if _, err := bounds.SetAgreementLB(n, k, x); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// BenchmarkApproxAgreement (T2) runs the 2-process halving protocol across
// an eps sweep, the workload whose step counts EXPERIMENTS.md compares to
// the Hoest–Shavit lower bound.
func BenchmarkApproxAgreement(b *testing.B) {
	for _, eps := range []float64{1e-2, 1e-4, 1e-6} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				procs, m, err := algorithms.NewApproxAgreement2([2]float64{0, 1}, eps)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := proto.Run(procs, m, nil, sched.RoundRobin{N: 2}, sched.WithMaxSteps(1_000_000)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAugSnapshotOps (E3) measures single augmented snapshot operations
// without contention: the Lemma 2 constants in wall-clock form.
func BenchmarkAugSnapshotOps(b *testing.B) {
	b.Run("BlockUpdate", func(b *testing.B) {
		// Get-View iterates every triple recorded in H (the paper's object is
		// unbounded); reset periodically for the steady-state cost.
		a := augsnap.New(freeStepper{}, 4, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				b.StopTimer()
				a = augsnap.New(freeStepper{}, 4, 4)
				b.StartTimer()
			}
			a.BlockUpdate(0, []int{i % 4}, []augsnap.Value{i})
		}
	})
	b.Run("Scan", func(b *testing.B) {
		// The paper's helping registers L(i,j) are unbounded arrays, so each
		// Scan appends help records and history accumulates; recreate the
		// object periodically to measure the steady-state operation cost
		// rather than unbounded-history GC pressure.
		a := augsnap.New(freeStepper{}, 4, 4)
		a.BlockUpdate(0, []int{0, 1, 2, 3}, []augsnap.Value{1, 2, 3, 4})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				b.StopTimer()
				a = augsnap.New(freeStepper{}, 4, 4)
				a.BlockUpdate(0, []int{0, 1, 2, 3}, []augsnap.Value{1, 2, 3, 4})
				b.StartTimer()
			}
			a.Scan(1)
		}
	})
}

// BenchmarkAugSnapshotStress (E4) runs the full mixed workload with offline
// §3 spec checking, per scheduled seed.
func BenchmarkAugSnapshotStress(b *testing.B) {
	for _, f := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) { benchAugStress(b, f) })
	}
}

func benchAugStress(b *testing.B, f int) {
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		eng := sched.NewSeqEngine(f, sched.NewRandom(seed), sched.WithMaxSteps(1<<22))
		a := augsnap.New(eng, f, 3)
		rngs := make([]*rand.Rand, f)
		for pid := range rngs {
			rngs[pid] = rand.New(rand.NewSource(seed*1000 + int64(pid)))
		}
		_, err := eng.RunMachines(sched.Processes(f, func(pid, j int) sched.Cursor {
			rng := rngs[pid]
			switch {
			case j == 6:
				return nil
			case rng.Intn(4) == 0:
				return a.StartScan(pid)
			}
			r := 1 + rng.Intn(3)
			comps := rng.Perm(3)[:r]
			vals := make([]augsnap.Value, r)
			for g := range vals {
				vals[g] = j
			}
			return a.StartBlockUpdate(pid, comps, vals)
		}))
		if err != nil {
			b.Fatal(err)
		}
		if err := trace.Check(a.Log(), 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulation (E5) runs the revisionist simulation end to end for
// the three positive configurations of EXPERIMENTS.md.
func BenchmarkSimulation(b *testing.B) {
	cases := []struct {
		name string
		cfg  core.Config
		mk   func(in []proto.Value) ([]proto.Process, error)
	}{
		{
			name: "firstvalue_n8_f8",
			cfg:  core.Config{N: 8, M: 1, F: 8, D: 0},
			mk: func(in []proto.Value) ([]proto.Process, error) {
				procs := make([]proto.Process, len(in))
				for i := range procs {
					procs[i] = algorithms.NewFirstValue(0, in[i])
				}
				return procs, nil
			},
		},
		{
			name: "kset_n4_m2_f2",
			cfg:  core.Config{N: 4, M: 2, F: 2, D: 0},
			mk: func(in []proto.Value) ([]proto.Process, error) {
				procs, _, err := algorithms.NewKSetAgreement(4, 3, in)
				return procs, err
			},
		},
		{
			name: "kset_n9_m3_f3",
			cfg:  core.Config{N: 9, M: 3, F: 3, D: 0},
			mk: func(in []proto.Value) ([]proto.Process, error) {
				procs, _, err := algorithms.NewKSetAgreement(9, 7, in)
				return procs, err
			},
		},
		{
			// The sweep-scale configuration: enough simulators and
			// components that the run is dominated by base-object steps
			// rather than setup.
			name: "kset_n30_m5_f6",
			cfg:  core.Config{N: 30, M: 5, F: 6, D: 0},
			mk: func(in []proto.Value) ([]proto.Process, error) {
				procs, _, err := algorithms.NewKSetAgreement(30, 26, in)
				return procs, err
			},
		},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			inputs := make([]proto.Value, c.cfg.F)
			for i := range inputs {
				inputs[i] = i
			}
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(c.cfg, inputs, c.mk, sched.NewRandom(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWorkerCounts is the worker-pool ablation dimension: sequential
// against the full machine, with one intermediate point when the machine has
// one.
func benchWorkerCounts() []int {
	n := runtime.GOMAXPROCS(0)
	counts := []int{1}
	if n >= 4 {
		counts = append(counts, n/2)
	}
	if n > 1 {
		counts = append(counts, n)
	}
	return counts
}

// exploreBenchFactory is the shared workload of the parallel-exploration
// benchmarks: 3-process consensus, a branching-3 prefix tree. Like the
// harness's systems it restores in place, so every explorer runs its
// schedules on one live system.
func exploreBenchFactory(gate sched.Stepper) trace.System {
	procs, m, err := algorithms.NewConsensus(3, []proto.Value{0, 1, 2})
	if err != nil {
		panic(err)
	}
	res := proto.NewRunResult(3)
	snap := shmem.NewMWSnapshot("M", gate, m, nil)
	machines := proto.Machines(procs, snap, res)
	return trace.System{
		Machines: machines,
		Check:    func(*sched.Result) error { return nil },
		Restore:  func(from trace.System) { proto.RestoreMachines(machines, from.Machines) },
	}
}

// BenchmarkExploreParallel measures exhaustive-exploration throughput
// (schedules/second) per worker-pool size: the prefix tree is sharded across
// workers and the reports merge back byte-identical to the sequential ones.
// The "speedup" sub-benchmark reports the workers=GOMAXPROCS over workers=1
// throughput ratio directly.
func BenchmarkExploreParallel(b *testing.B) {
	const runsPerExplore = 4000
	opts := trace.ExploreOpts{MaxDepth: 22, MaxRuns: runsPerExplore}
	explore := func(b *testing.B, workers int) int {
		opts := opts
		opts.Workers = workers
		total := 0
		for i := 0; i < b.N; i++ {
			rep, err := trace.Explore(3, exploreBenchFactory, opts)
			if err != nil {
				b.Fatal(err)
			}
			total += rep.Runs
		}
		return total
	}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			total := explore(b, w)
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "schedules/s")
		})
	}
	b.Run("speedup", func(b *testing.B) {
		start := time.Now()
		explore(b, 1)
		seq := time.Since(start)
		start = time.Now()
		explore(b, runtime.GOMAXPROCS(0))
		par := time.Since(start)
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup")
		b.ReportMetric(0, "ns/op")
	})
}

// BenchmarkFuzzParallel measures adversarial-search throughput
// (evaluations/second) per worker-pool size on the step-maximization metric;
// the population structure is worker-independent, so every pool size
// produces the identical report.
func BenchmarkFuzzParallel(b *testing.B) {
	factory := func(gate sched.Stepper) trace.System {
		procs, m, err := algorithms.NewKSetAgreement(4, 3, []proto.Value{0, 1, 2, 3})
		if err != nil {
			panic(err)
		}
		res := proto.NewRunResult(4)
		snap := shmem.NewMWSnapshot("M", gate, m, nil)
		return trace.System{Machines: proto.Machines(procs, snap, res)}
	}
	metric := func(res *sched.Result) float64 { return float64(res.Steps) }
	const iters = 200
	fuzz := func(b *testing.B, workers int) int {
		total := 0
		for i := 0; i < b.N; i++ {
			rep, err := trace.Fuzz(4, factory, metric, trace.FuzzOpts{
				Iterations: iters, Seed: int64(i), ScheduleLen: 48, MaxSteps: 1 << 16, Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			total += rep.Evaluated
		}
		return total
	}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			total := fuzz(b, w)
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "evals/s")
		})
	}
	b.Run("speedup", func(b *testing.B) {
		start := time.Now()
		fuzz(b, 1)
		seq := time.Since(start)
		start = time.Now()
		fuzz(b, runtime.GOMAXPROCS(0))
		par := time.Since(start)
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup")
		b.ReportMetric(0, "ns/op")
	})
}

// BenchmarkStressParallel measures the harness stress verb per worker-pool
// size: seeded workloads fan out, outcomes merge in seed order.
func BenchmarkStressParallel(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := harness.Stress(harness.Options{F: 4, M: 3, Ops: 6, Seeds: 50, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Violation != nil {
					b.Fatalf("§3 violation on seed %d: %v", rep.FailedSeed, rep.Violation)
				}
			}
		})
	}
}

// BenchmarkReductionFalsification (E6) runs the starved-consensus reduction.
func BenchmarkReductionFalsification(b *testing.B) {
	cfg := core.Config{N: 4, M: 1, F: 4, D: 0}
	inputs := []proto.Value{0, 1, 2, 3}
	mk := func(in []proto.Value) ([]proto.Process, error) {
		procs := make([]proto.Process, len(in))
		for i := range procs {
			procs[i] = algorithms.NewFirstValue(0, in[i])
		}
		return procs, nil
	}
	for i := 0; i < b.N; i++ {
		res, err := core.Run(cfg, inputs, mk, sched.NewRandom(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range res.Done {
			if !d {
				b.Fatal("derived protocol must be wait-free")
			}
		}
	}
}

// BenchmarkNSTConversion (E7) measures the Theorem 35 determinization: solo
// path search plus a full protocol run of the derived Π′.
func BenchmarkNSTConversion(b *testing.B) {
	for _, m := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("multicoin_m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				procs := make([]proto.Process, 3)
				inputs := make([]proto.Value, 3)
				for j := range procs {
					inputs[j] = j
					procs[j] = nst.NewProcess(nst.NewConverter(nst.MultiCoin{M: m}, m), inputs[j])
				}
				if _, _, err := proto.Run(procs, m, nil, sched.NewRandom(int64(i)), sched.WithMaxSteps(200_000)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpperBoundProtocols (E8) runs the upper-bound protocols under a
// random scheduler.
func BenchmarkUpperBoundProtocols(b *testing.B) {
	b.Run("consensus_n6", func(b *testing.B) {
		inputs := make([]proto.Value, 6)
		for i := range inputs {
			inputs[i] = i
		}
		for i := 0; i < b.N; i++ {
			procs, m, err := algorithms.NewConsensus(6, inputs)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := proto.Run(procs, m, nil, sched.NewRandom(int64(i)), sched.WithMaxSteps(200_000)); err != nil && !errors.Is(err, sched.ErrMaxSteps) {
				b.Fatal(err)
			}
		}
	})
	b.Run("kset_n8_k4", func(b *testing.B) {
		inputs := make([]proto.Value, 8)
		for i := range inputs {
			inputs[i] = i
		}
		for i := 0; i < b.N; i++ {
			procs, m, err := algorithms.NewKSetAgreement(8, 4, inputs)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := proto.Run(procs, m, nil, sched.NewRandom(int64(i)), sched.WithMaxSteps(200_000)); err != nil && !errors.Is(err, sched.ErrMaxSteps) {
				b.Fatal(err)
			}
		}
	})
	b.Run("lane_n10_k9_x4", func(b *testing.B) {
		inputs := make([]proto.Value, 10)
		for i := range inputs {
			inputs[i] = i
		}
		for i := 0; i < b.N; i++ {
			procs, m, err := algorithms.NewLaneKSetAgreement(10, 9, 4, inputs)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := proto.Run(procs, m, nil, sched.NewRandom(int64(i)), sched.WithMaxSteps(200_000)); err != nil && !errors.Is(err, sched.ErrMaxSteps) {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotSubstrates compares the atomic snapshot with the
// register-built constructions (the §2 equivalence both directions).
func BenchmarkSnapshotSubstrates(b *testing.B) {
	for _, kind := range []string{"atomic", "regsw", "regmw"} {
		b.Run(kind, func(b *testing.B) { benchSnapshotWorkload(b, kind) })
	}
}

type freeStepper struct{}

func (freeStepper) Step(int, sched.Op) {}

// stepFunc is a one-step operation: f performs exactly one gated step.
type stepFunc func()

func (f stepFunc) Step() bool { f(); return true }

// benchSnapOps builds the single-writer snapshot a substrate benchmark
// exercises and returns its update and scan as cursors: one step each on the
// atomic snapshot, one step per register read or write on the register-built
// ones.
func benchSnapOps(kind string, r sched.Stepper, f int) (update func(pid int, v shmem.Value) sched.Cursor, scan func(pid int) sched.Cursor) {
	switch kind {
	case "atomic":
		s := shmem.NewSWSnapshot("S", r, f, nil)
		return func(pid int, v shmem.Value) sched.Cursor { return stepFunc(func() { s.Update(pid, v) }) },
			func(pid int) sched.Cursor { return stepFunc(func() { s.Scan(pid) }) }
	case "regsw":
		s := shmem.NewRegSWSnapshot("S", r, f, nil)
		return func(pid int, v shmem.Value) sched.Cursor { return s.StartUpdate(pid, v) },
			func(pid int) sched.Cursor { return s.StartScan(pid) }
	case "regmw":
		s := shmem.NewRegMWSnapshot("S", r, f, f, nil)
		return func(pid int, v shmem.Value) sched.Cursor { return s.StartUpdate(pid, pid, v) },
			func(pid int) sched.Cursor { return s.StartScan(pid) }
	default:
		panic("unknown snapshot kind " + kind)
	}
}

func benchSnapshotWorkload(b *testing.B, kind string) {
	const f = 4
	for i := 0; i < b.N; i++ {
		eng := sched.NewSeqEngine(f, sched.NewRandom(int64(i)), sched.WithMaxSteps(1<<22))
		update, scan := benchSnapOps(kind, eng, f)
		// Four rounds of one update and one scan per process.
		_, err := eng.RunMachines(sched.Processes(f, func(pid, j int) sched.Cursor {
			switch {
			case j == 8:
				return nil
			case j%2 == 0:
				return update(pid, j/2)
			}
			return scan(pid)
		}))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreSymmetry is the symmetry-reduction ablation over the
// harness front door (the registry carries the symmetry declarations):
// exhaustive exploration of 4-process firstvalue — the maximally symmetric
// protocol, full S_4 group with input renaming — plain, pruned, and
// symmetry-reduced, reporting runs-explored, states-distinct and
// fingerprints/run (configuration hashes per run, canonical or plain) per
// exploration. Each exploration is harness.Check's: the registry job it
// resolves, explored with the factory's hooks counted. The
// prune=on/symmetry=on row's states-distinct against the prune=on row's is
// the orbit-collapse ratio the E10 experiment tabulates.
func BenchmarkExploreSymmetry(b *testing.B) {
	base := harness.Options{
		Protocol: "firstvalue",
		Params:   protocol.Params{N: 4},
		MaxDepth: 20,
		MaxRuns:  2_000_000,
	}
	for _, c := range []struct {
		name            string
		prune, symmetry bool
	}{
		{"prune=off/symmetry=off", false, false},
		{"prune=on/symmetry=off", true, false},
		{"prune=on/symmetry=on", true, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			opts := base
			opts.Prune, opts.Symmetry = c.prune, c.symmetry
			job, err := harness.CheckJob(opts)
			if err != nil {
				b.Fatal(err)
			}
			var calls atomic.Int64
			runs, distinct := 0, 0
			for i := 0; i < b.N; i++ {
				n, f, err := harness.Resolve(job)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := trace.Explore(n, countFingerprints(f, &calls), job.Opts)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Exhausted {
					b.Fatal("benchmark space not exhausted")
				}
				runs += rep.Runs
				distinct += rep.Distinct
			}
			b.ReportMetric(float64(runs)/float64(b.N), "runs-explored")
			b.ReportMetric(float64(distinct)/float64(b.N), "states-distinct")
			b.ReportMetric(float64(calls.Load())/float64(runs), "fingerprints/run")
		})
	}
	b.Run("speedup", func(b *testing.B) {
		run := func(prune, symmetry bool) time.Duration {
			start := time.Now()
			opts := base
			opts.Prune, opts.Symmetry = prune, symmetry
			for i := 0; i < b.N; i++ {
				if _, err := harness.Check(opts); err != nil {
					b.Fatal(err)
				}
			}
			return time.Since(start)
		}
		pruned := run(true, false)
		sym := run(true, true)
		b.ReportMetric(pruned.Seconds()/sym.Seconds(), "speedup")
		b.ReportMetric(0, "ns/op")
	})
}

// BenchmarkLemma26Reconstruction measures the cost of reconstructing the
// simulated execution and replaying it as an execution of Π
// (core.ValidateExecution), per recorded simulation run.
func BenchmarkLemma26Reconstruction(b *testing.B) {
	cfg := core.Config{N: 9, M: 3, F: 3, D: 0}
	inputs := []proto.Value{1, 2, 3}
	mk := func(in []proto.Value) ([]proto.Process, error) {
		procs, _, err := algorithms.NewKSetAgreement(9, 7, in)
		return procs, err
	}
	res, err := core.Run(cfg, inputs, mk, sched.NewRandom(42))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.ValidateExecution(cfg, inputs, mk, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationSubstrateAblation compares the simulation over the
// atomic single-writer snapshot H against the register-built H (Afek et
// al.): the paper's "an m-component snapshot is m registers" equivalence,
// priced in real-system steps.
func BenchmarkSimulationSubstrateAblation(b *testing.B) {
	mk := func(in []proto.Value) ([]proto.Process, error) {
		procs, _, err := algorithms.NewKSetAgreement(4, 3, in)
		return procs, err
	}
	inputs := []proto.Value{1, 2}
	for _, reg := range []bool{false, true} {
		name := "atomicH"
		if reg {
			name = "registerBuiltH"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.Config{N: 4, M: 2, F: 2, D: 0, RegisterBuiltH: reg}
			steps := 0
			for i := 0; i < b.N; i++ {
				res, err := core.Run(cfg, inputs, mk, sched.NewRandom(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "H-steps/run")
		})
	}
}

// BenchmarkExploreObs is the observability ablation: the same exhaustive
// exploration with the search core's counters off (a nil SearchObs — every
// increment is a nil-receiver no-op, the disabled mode everywhere) and on (a
// live SearchObs over a registry, the mode `checkd -admin` and -progress
// run in). The report is byte-identical either way (TestCheckObsInvariant);
// this prices the side channel. The "overhead" sub-benchmark reports the
// on-over-off wall-clock ratio directly; the budget is < 2% (1.0x-1.02x).
func BenchmarkExploreObs(b *testing.B) {
	base := harness.Options{
		Protocol: "firstvalue",
		Params:   protocol.Params{N: 4},
		MaxDepth: 20,
		MaxRuns:  2_000_000,
		Prune:    true,
		Symmetry: true,
	}
	explore := func(b *testing.B, m *trace.SearchObs) {
		b.Helper()
		runs := 0
		for i := 0; i < b.N; i++ {
			opts := base
			opts.Obs = m
			rep, err := harness.Check(opts)
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Explore.Exhausted {
				b.Fatal("benchmark space not exhausted")
			}
			runs += rep.Explore.Runs
		}
		b.ReportMetric(float64(runs)/float64(b.N), "runs-explored")
	}
	b.Run("obs=off", func(b *testing.B) { explore(b, nil) })
	b.Run("obs=on", func(b *testing.B) { explore(b, trace.NewSearchObs(obs.NewRegistry())) })
	b.Run("overhead", func(b *testing.B) {
		run := func(m *trace.SearchObs) time.Duration {
			start := time.Now()
			opts := base
			opts.Obs = m
			for i := 0; i < b.N; i++ {
				if _, err := harness.Check(opts); err != nil {
					b.Fatal(err)
				}
			}
			return time.Since(start)
		}
		off := run(nil)
		on := run(trace.NewSearchObs(obs.NewRegistry()))
		b.ReportMetric(on.Seconds()/off.Seconds(), "overhead")
		b.ReportMetric(0, "ns/op")
	})
}

// prunedBenchSystem wires the stateful-exploration hooks (fingerprint and
// in-place restore) over a protocol instance, mirroring the harness factory.
func prunedBenchSystem(snap *shmem.MWSnapshot, machines []sched.Machine) trace.System {
	var fp sched.FP
	return trace.System{
		Machines: machines,
		Check:    func(*sched.Result) error { return nil },
		Fingerprint: func(h *maphash.Hash) {
			fp.Reset()
			snap.AppendFingerprint(&fp, nil)
			for _, m := range machines {
				m.(sched.Fingerprinter).AppendFingerprint(&fp, nil)
			}
			h.Write(fp.Bytes())
		},
		Restore: func(from trace.System) { proto.RestoreMachines(machines, from.Machines) },
	}
}

// prunedBenchFactory is the stateful-exploration benchmark workload: n
// FirstValue processes racing on one component — the maximally symmetric
// protocol, where interleavings collapse onto few configurations.
func prunedBenchFactory(n int) trace.Factory {
	return func(gate sched.Stepper) trace.System {
		procs := make([]proto.Process, n)
		for i := range procs {
			procs[i] = algorithms.NewFirstValue(0, 100+i)
		}
		res := proto.NewRunResult(n)
		snap := shmem.NewMWSnapshot("M", gate, 1, nil)
		return prunedBenchSystem(snap, proto.Machines(procs, snap, res))
	}
}

// countFingerprints wraps f's fingerprint hooks, plain and canonical, with a
// counter of their calls.
func countFingerprints(f trace.Factory, calls *atomic.Int64) trace.Factory {
	return func(gate sched.Stepper) trace.System {
		sys := f(gate)
		if fp := sys.Fingerprint; fp != nil {
			sys.Fingerprint = func(h *maphash.Hash) { calls.Add(1); fp(h) }
		}
		if cf := sys.CanonicalFingerprint; cf != nil {
			sys.CanonicalFingerprint = func(h *maphash.Hash) uint64 { calls.Add(1); return cf(h) }
		}
		return sys
	}
}

// BenchmarkExplorePruned is the state-fingerprint pruning ablation:
// exhaustive exploration of 4-process firstvalue with pruning off and on,
// reporting runs-explored, states-distinct and fingerprints/run (hook calls
// per run) per exploration. Both arms
// checkpoint and resume runs from the deepest common prefix (the systems
// restore in place), so the arms differ only in the visited-state cache.
// The "speedup" sub-benchmark reports the plain-over-pruned wall-clock
// ratio directly (the pruned search executes ~17x fewer runs on this
// workload).
func BenchmarkExplorePruned(b *testing.B) {
	const n = 4
	base := trace.ExploreOpts{MaxDepth: 20}
	explore := func(b *testing.B, prune bool) {
		b.Helper()
		var calls atomic.Int64
		runs, distinct := 0, 0
		for i := 0; i < b.N; i++ {
			opts := base
			opts.Prune = prune
			rep, err := trace.Explore(n, countFingerprints(prunedBenchFactory(n), &calls), opts)
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Exhausted {
				b.Fatal("benchmark space not exhausted")
			}
			runs += rep.Runs
			distinct += rep.Distinct
		}
		b.ReportMetric(float64(runs)/float64(b.N), "runs-explored")
		b.ReportMetric(float64(distinct)/float64(b.N), "states-distinct")
		b.ReportMetric(float64(calls.Load())/float64(runs), "fingerprints/run")
	}
	b.Run("prune=off", func(b *testing.B) { explore(b, false) })
	b.Run("prune=on", func(b *testing.B) { explore(b, true) })
	b.Run("speedup", func(b *testing.B) {
		run := func(prune bool) time.Duration {
			start := time.Now()
			opts := base
			opts.Prune = prune
			for i := 0; i < b.N; i++ {
				if _, err := trace.Explore(n, prunedBenchFactory(n), opts); err != nil {
					b.Fatal(err)
				}
			}
			return time.Since(start)
		}
		plain := run(false)
		pruned := run(true)
		b.ReportMetric(plain.Seconds()/pruned.Seconds(), "speedup")
		b.ReportMetric(0, "ns/op")
	})
}
