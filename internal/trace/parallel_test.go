package trace

import (
	"fmt"
	"testing"

	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// orderSystem builds nprocs processes that each write their pid then read;
// Check flags the run when the write order satisfies flag. The order slice
// is per-system and appended between gated steps, so it is deterministic per
// schedule and race-free across concurrently evaluated systems.
func orderSystem(nprocs int, flag func(order []int) bool) Factory {
	return func(g sched.Stepper) System {
		reg := shmem.NewRegister("R", g, nil)
		var order []int
		return System{
			Machines: oneStepOps(nprocs, func(pid int) []func() {
				return []func(){
					func() { reg.Write(pid, pid); order = append(order, pid) },
					func() { reg.Read(pid) },
				}
			}),
			Check: func(*sched.Result) error {
				if flag(order) {
					return fmt.Errorf("flagged order %v", order)
				}
				return nil
			},
		}
	}
}

// notZeroFirst flags every schedule whose first completed write is not by
// process 0 — a dense violation predicate, so cutoffs land mid-subtree.
func notZeroFirst(order []int) bool { return len(order) > 0 && order[0] != 0 }

func reportsEqual(t *testing.T, tag string, seq, par *ExploreReport) {
	t.Helper()
	if seq.Runs != par.Runs || seq.Truncated != par.Truncated || seq.Exhausted != par.Exhausted {
		t.Fatalf("%s: counts diverge: sequential {Runs:%d Truncated:%d Exhausted:%v}, parallel {Runs:%d Truncated:%d Exhausted:%v}",
			tag, seq.Runs, seq.Truncated, seq.Exhausted, par.Runs, par.Truncated, par.Exhausted)
	}
	if len(seq.Violations) != len(par.Violations) {
		t.Fatalf("%s: %d violations sequentially, %d in parallel", tag, len(seq.Violations), len(par.Violations))
	}
	for i := range seq.Violations {
		sv, pv := seq.Violations[i], par.Violations[i]
		if fmt.Sprint(sv.Schedule) != fmt.Sprint(pv.Schedule) || sv.Err.Error() != pv.Err.Error() {
			t.Fatalf("%s: violation %d diverges: sequential %v (%v), parallel %v (%v)",
				tag, i, sv.Schedule, sv.Err, pv.Schedule, pv.Err)
		}
	}
}

// TestExploreWorkersByteIdentical sweeps depth, run and violation bounds and
// checks that the parallel explorer's report is identical to the sequential
// one — including cutoffs that land in the middle of a subtree.
func TestExploreWorkersByteIdentical(t *testing.T) {
	factory := orderSystem(3, notZeroFirst)
	for _, maxDepth := range []int{3, 6, 12} {
		for _, maxRuns := range []int{0, 1, 2, 5, 17, 90, 100000} {
			for _, maxViol := range []int{0, 1, 3, 100} {
				opts := ExploreOpts{MaxDepth: maxDepth, MaxRuns: maxRuns, MaxViolations: maxViol, Workers: 1}
				seq, err := Explore(3, factory, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{2, 8} {
					opts.Workers = w
					par, err := Explore(3, factory, opts)
					if err != nil {
						t.Fatal(err)
					}
					tag := fmt.Sprintf("depth=%d runs=%d viol=%d workers=%d", maxDepth, maxRuns, maxViol, w)
					reportsEqual(t, tag, seq, par)
				}
			}
		}
	}
}

// TestExploreWorkersExhaustive pins the exhaustive small-space numbers on
// the parallel path (the counterpart of TestExploreExhaustsSmallSpace).
func TestExploreWorkersExhaustive(t *testing.T) {
	rep, err := Explore(2, counterSystem(nil), ExploreOpts{MaxDepth: 10, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exhausted || rep.Runs != 6 || len(rep.Violations) != 0 {
		t.Fatalf("parallel exhaustive report = {Runs:%d Exhausted:%v Violations:%d}, want {6 true 0}",
			rep.Runs, rep.Exhausted, len(rep.Violations))
	}
}

// TestExploreWorkersRunError checks that a schedule-dependent process panic
// surfaces as the same error, on the same schedule, with the same partial
// report, for any worker count.
func TestExploreWorkersRunError(t *testing.T) {
	factory := func(g sched.Stepper) System {
		reg := shmem.NewRegister("R", g, nil)
		return System{
			Machines: oneStepOps(3, func(pid int) []func() {
				return []func(){
					func() { reg.Write(pid, pid) },
					func() {
						if v := reg.Read(pid); pid == 1 && v == 2 {
							panic("reached the poisoned interleaving")
						}
					},
				}
			}),
			Check: func(*sched.Result) error { return nil },
		}
	}
	seq, seqErr := Explore(3, factory, ExploreOpts{MaxDepth: 10, Workers: 1})
	if seqErr == nil {
		t.Fatal("sequential exploration never hit the poisoned interleaving")
	}
	for _, w := range []int{2, 8} {
		par, parErr := Explore(3, factory, ExploreOpts{MaxDepth: 10, Workers: w})
		if parErr == nil {
			t.Fatalf("workers=%d: parallel exploration missed the error", w)
		}
		if seqErr.Error() != parErr.Error() {
			t.Fatalf("workers=%d: error diverges:\n  sequential: %v\n  parallel:   %v", w, seqErr, parErr)
		}
		reportsEqual(t, fmt.Sprintf("error path workers=%d", w), seq, par)
	}
}

// TestExploreViolationsReplay re-runs every violation Explore reports —
// found by 8 workers — through ReplayViolation and requires each to
// reproduce its check error. This is what makes parallel-found violations
// trustworthy: a schedule is evidence, not hearsay.
func TestExploreViolationsReplay(t *testing.T) {
	factory := orderSystem(3, notZeroFirst)
	rep, err := Explore(3, factory, ExploreOpts{MaxDepth: 12, MaxViolations: 50, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("no violations to replay")
	}
	for i, v := range rep.Violations {
		violErr, runErr := ReplayViolation(3, factory, v)
		if runErr != nil {
			t.Fatalf("violation %d: replay failed: %v", i, runErr)
		}
		if violErr == nil {
			t.Fatalf("violation %d on schedule %v did not reproduce under replay", i, v.Schedule)
		}
		if violErr.Error() != v.Err.Error() {
			t.Fatalf("violation %d reproduced a different error: explored %v, replayed %v", i, v.Err, violErr)
		}
	}
}

// TestFuzzWorkersDeterministic requires the fuzz report to be identical for
// any worker count at a fixed seed: the population structure (split climber
// seeds, epoch barriers, best-sharing) never depends on Workers.
func TestFuzzWorkersDeterministic(t *testing.T) {
	steps := func(res *sched.Result) float64 { return float64(res.Steps) }
	opts := FuzzOpts{Iterations: 120, Seed: 5, ScheduleLen: 24, MaxSteps: 5000, Workers: 1}
	seq, err := Fuzz(2, paxosLikeSystem, steps, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		opts.Workers = w
		par, err := Fuzz(2, paxosLikeSystem, steps, opts)
		if err != nil {
			t.Fatal(err)
		}
		if seq.BestScore != par.BestScore || seq.Evaluated != par.Evaluated ||
			fmt.Sprint(seq.BestSchedule) != fmt.Sprint(par.BestSchedule) {
			t.Fatalf("workers=%d: fuzz diverges: sequential {score %v, %d evals, %v}, parallel {score %v, %d evals, %v}",
				w, seq.BestScore, seq.Evaluated, seq.BestSchedule, par.BestScore, par.Evaluated, par.BestSchedule)
		}
	}
}

// TestResolveWorkers pins the option mapping.
func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(1); got != 1 {
		t.Fatalf("ResolveWorkers(1) = %d", got)
	}
	if got := ResolveWorkers(-3); got != 1 {
		t.Fatalf("ResolveWorkers(-3) = %d", got)
	}
	if got := ResolveWorkers(6); got != 6 {
		t.Fatalf("ResolveWorkers(6) = %d", got)
	}
	if got := ResolveWorkers(0); got < 1 {
		t.Fatalf("ResolveWorkers(0) = %d", got)
	}
}
