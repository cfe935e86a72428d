package trace

import (
	"fmt"
	"testing"

	"revisionist/internal/sched"
)

// resultChecked wraps factory so that every system it builds fails its check
// with an error naming the Result it got: Steps and StepsBy. Every
// checked run of a search is then a violation whose error records the
// Result, and replaying the violation on a fresh engine (ReplayViolation)
// must reproduce it. The explorer restarts one engine and restores one live
// system for all of its runs, and res aliases that engine's buffers, so a
// stale buffer shows up as a violation that replays differently.
func resultChecked(factory Factory) Factory {
	return func(gate sched.Stepper) System {
		sys := factory(gate)
		sys.Check = func(res *sched.Result) error {
			return fmt.Errorf("steps=%d by=%v", res.Steps, res.StepsBy)
		}
		return sys
	}
}

// TestCheckSeesFreshEngineResult: on every run of a search — unpruned and
// pruned, both with runs resumed from checkpoints, on 1 and 2 workers — the
// Result handed to System.Check equals the one a fresh engine produces for
// the same schedule: Steps and StepsBy. The depth bounds truncate most runs,
// so processes that did not finish sit beside ones that did, and
// firstvalue's checkpoints hold finished processes; a restart that left a
// previous run's step counts behind, or resumed without the checkpoint's, is
// caught.
func TestCheckSeesFreshEngineResult(t *testing.T) {
	systems := []struct {
		name     string
		n, depth int
		factory  Factory
	}{
		{"consensus", 2, 12, consensusAgreeFactory(2)},
		{"firstvalue", 3, 7, firstValueFactory(3)},
	}
	for _, s := range systems {
		for _, prune := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				tag := fmt.Sprintf("%s prune=%v workers=%d", s.name, prune, workers)
				factory := resultChecked(s.factory)
				rep, err := Explore(s.n, factory, ExploreOpts{MaxDepth: s.depth, Prune: prune, Workers: workers, MaxViolations: 1 << 20})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Exhausted || rep.Truncated == 0 || rep.Truncated == rep.Runs {
					t.Fatalf("%s: want an exhausted search with some runs truncated, got %+v", tag, rep)
				}
				if want := rep.Runs - rep.Pruned; len(rep.Violations) != want {
					t.Errorf("%s: %d checked runs, want one per unpruned run (%d)", tag, len(rep.Violations), want)
				}
				bad := 0
				for _, v := range rep.Violations {
					fresh, err := ReplayViolation(s.n, factory, v)
					if err != nil {
						t.Fatalf("%s: replay of %v: %v", tag, v.Schedule, err)
					}
					if fresh.Error() != v.Err.Error() {
						if bad++; bad <= 3 {
							t.Errorf("%s: schedule %v: Check got %s, a fresh replay gives %s", tag, v.Schedule, v.Err, fresh)
						}
					}
				}
				if bad > 0 {
					t.Errorf("%s: %d of %d checked runs differ from a fresh replay", tag, bad, len(rep.Violations))
				}
			}
		}
	}
}
