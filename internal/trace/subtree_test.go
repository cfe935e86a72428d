package trace

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"revisionist/internal/sched"
)

// driveSubtrees replays the distributed coordinator's protocol in-process
// and single-threaded: plan, lease every subtree in canonical waves against
// a table frozen at wave starts, merge. It is the reference composition the
// exported hooks must satisfy without any transport in the way.
func driveSubtrees(t *testing.T, nprocs int, factory Factory, opts ExploreOpts) *ExploreReport {
	t.Helper()
	frontier, width, err := SubtreePlan(nprocs, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	maxViol := opts.MaxViolations
	if maxViol <= 0 {
		maxViol = 1
	}
	outcomes := make([]*SubtreeOutcome, len(frontier))
	table := map[uint64]int{}
	frozen := func(fp uint64) (int, bool) { rem, ok := table[fp]; return rem, ok }
	done := 0
	stop := len(frontier)
wave:
	for lo := 0; lo < len(frontier); lo += width {
		hi := min(lo+width, len(frontier))
		for i := lo; i < hi && i <= stop; i++ {
			o, err := RunSubtree(nprocs, factory, opts, frontier[i], done, frozen)
			if err != nil {
				t.Fatal(err)
			}
			outcomes[i] = o
			if i < stop && o.Cut(maxViol) {
				stop = i
			}
		}
		if stop < hi {
			break wave // cutoff inside this wave: merge now, publish nothing
		}
		for i := lo; i < hi; i++ {
			done += outcomes[i].Runs
			for _, e := range outcomes[i].Closures {
				if cur, ok := table[e.Fp]; !ok || e.Rem > cur {
					table[e.Fp] = e.Rem
				}
			}
		}
	}
	rep, err := MergeOutcomes(frontier, outcomes, opts, false)
	if err != nil {
		if rep == nil {
			t.Fatal(err)
		}
		// a run-error report is still comparable; surface unexpected kinds
		if errors.Is(err, ErrInterrupted) {
			t.Fatal(err)
		}
	}
	if opts.Prune && rep.Exhausted {
		rep.Distinct = len(table)
	}
	return rep
}

// TestSubtreeHooksMatchExplore drives the exported lease/run/merge hooks the
// way a coordinator does and requires the exact Explore report — pruned and
// plain, exhaustive and budget-cut.
func TestSubtreeHooksMatchExplore(t *testing.T) {
	for _, c := range []struct {
		name    string
		nprocs  int
		factory Factory
		opts    ExploreOpts
	}{
		{"firstvalue-3-plain", 3, firstValueFactory(3), ExploreOpts{MaxDepth: 12}},
		{"firstvalue-3-pruned", 3, firstValueFactory(3), ExploreOpts{MaxDepth: 12, Prune: true}},
		{"consensus-2-viol", 2, consensusAgreeFactory(2), ExploreOpts{MaxDepth: 12, MaxViolations: 3}},
		{"consensus-2-budget", 2, consensusAgreeFactory(2), ExploreOpts{MaxDepth: 16, MaxRuns: 900}},
		{"consensus-2-pruned-budget", 2, consensusAgreeFactory(2), ExploreOpts{MaxDepth: 16, MaxRuns: 900, Prune: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := Explore(c.nprocs, c.factory, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			got := driveSubtrees(t, c.nprocs, c.factory, c.opts)
			if want.Runs != got.Runs || want.Truncated != got.Truncated ||
				want.Exhausted != got.Exhausted || want.Pruned != got.Pruned ||
				want.Distinct != got.Distinct || len(want.Violations) != len(got.Violations) {
				t.Fatalf("hook-driven report diverges:\nwant %+v\ngot  %+v", want, got)
			}
			for i := range want.Violations {
				if fmt.Sprint(want.Violations[i].Schedule) != fmt.Sprint(got.Violations[i].Schedule) ||
					want.Violations[i].Err.Error() != got.Violations[i].Err.Error() {
					t.Fatalf("violation %d diverges", i)
				}
			}
		})
	}
}

// TestExploreInterrupted checks the graceful-interruption contract on every
// explorer path: once Interrupted flips, Explore stops and returns the
// partial report with ErrInterrupted instead of running to exhaustion.
func TestExploreInterrupted(t *testing.T) {
	for _, c := range []struct {
		name string
		opts ExploreOpts
	}{
		{"sequential", ExploreOpts{MaxDepth: 20, Workers: 1}},
		{"parallel", ExploreOpts{MaxDepth: 20, Workers: 4}},
		{"pruned", ExploreOpts{MaxDepth: 20, Workers: 4, Prune: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			full, err := Explore(4, firstValueFactory(4), ExploreOpts{MaxDepth: 20, Workers: 1, Prune: c.opts.Prune})
			if err != nil {
				t.Fatal(err)
			}
			// The interrupt fires only once subtree 0 has completed a run:
			// otherwise a worker pool that schedules subtree 0's worker late
			// merges an empty partial report.
			var polls atomic.Int64
			var leftmostDone atomic.Bool
			opts := c.opts
			opts.Interrupted = func() bool { return polls.Add(1) > 40 && leftmostDone.Load() }
			rep, err := Explore(4, leftmostChecked(4, firstValueFactory(4), &leftmostDone), opts)
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("want ErrInterrupted, got %v", err)
			}
			if rep == nil {
				t.Fatal("no partial report")
			}
			if rep.Exhausted || rep.Runs == 0 || rep.Runs >= full.Runs {
				t.Fatalf("implausible partial report %+v (full search: %d runs)", rep, full.Runs)
			}
		})
	}
}

// leftmostChecked wraps factory so that done flips once a system built by it
// has checked the leftmost schedule, the one that always picks the lowest
// enabled pid. That schedule is the first run of subtree 0 (frontier probes
// also run it, but a probe is never checked), and the first run of a subtree
// is never pruned, so done means subtree 0 has completed a run.
func leftmostChecked(n int, factory Factory, done *atomic.Bool) Factory {
	eng := sched.NewSeqEngine(n, sched.Lowest{})
	res, err := eng.RunMachines(factory(eng).Machines)
	if err != nil {
		panic(err)
	}
	leftmost := fmt.Sprint(res.Trace)
	return func(gate sched.Stepper) System {
		sys := factory(gate)
		check := sys.Check
		sys.Check = func(res *sched.Result) error {
			if fmt.Sprint(res.Trace) == leftmost {
				done.Store(true)
			}
			return check(res)
		}
		return sys
	}
}

// TestExploreInterruptedImmediately pins the degenerate case: a search
// cancelled before its first schedule still reports cleanly.
func TestExploreInterruptedImmediately(t *testing.T) {
	rep, err := Explore(3, firstValueFactory(3), ExploreOpts{
		MaxDepth: 10, Workers: 1, Interrupted: func() bool { return true },
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if rep == nil || rep.Runs != 0 || rep.Exhausted {
		t.Fatalf("bad empty partial report %+v", rep)
	}
}
