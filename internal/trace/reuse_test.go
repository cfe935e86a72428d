package trace

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"revisionist/internal/sched"
)

// replayChecked wraps factory so that every system it builds — and every
// fork of one — compares the Result its Check receives with a fresh-engine
// replay of the same schedule before running the real check. The explorer
// restarts one engine for all of its runs and res aliases that engine's
// buffers, so a stale buffer shows up here as a mismatch. mismatch is called
// for each differing run (from any worker); checked counts the comparisons.
func replayChecked(nprocs int, factory Factory, checked *atomic.Int64, mismatch func(want, got *sched.Result)) Factory {
	var wrap func(sys System) System
	wrap = func(sys System) System {
		check, fork := sys.Check, sys.Fork
		sys.Check = func(res *sched.Result) error {
			checked.Add(1)
			picks := make([]int, len(res.Trace))
			for i, rec := range res.Trace {
				picks[i] = rec.PID
			}
			eng := sched.NewSeqEngine(nprocs, sched.Replay{Choices: picks})
			fresh := factory(eng)
			want, err := eng.RunMachines(fresh.Machines)
			if err != nil || want.Steps != res.Steps || !reflect.DeepEqual(want.StepsBy, res.StepsBy) ||
				!reflect.DeepEqual(want.Finished, res.Finished) || !reflect.DeepEqual(want.Trace, res.Trace) {
				mismatch(want, res)
			}
			return check(res)
		}
		if fork != nil {
			sys.Fork = func(gate sched.Stepper) System { return wrap(fork(gate)) }
		}
		return sys
	}
	return func(gate sched.Stepper) System { return wrap(factory(gate)) }
}

// TestCheckSeesFreshEngineResult: on every run of a search — unpruned, and
// pruned with runs resumed from checkpoints, on 1 and 2 workers — the Result
// handed to System.Check equals the one a fresh engine produces for the same
// schedule: Steps, StepsBy, Finished and Trace. The depth bounds truncate
// most runs, so processes that did not finish sit beside ones that did, and
// firstvalue's checkpoints hold finished processes; a restart that left a
// previous run's step counts or finished flags behind, or resumed without
// the checkpoint's, is caught.
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
				var checked, bad atomic.Int64
				factory := replayChecked(s.n, s.factory, &checked, func(want, got *sched.Result) {
					if bad.Add(1) <= 3 {
						t.Errorf("%s: Check got %+v, a fresh replay gives %+v", tag, got, want)
					}
				})
				rep, err := Explore(s.n, factory, ExploreOpts{MaxDepth: s.depth, Prune: prune, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Exhausted || rep.Truncated == 0 || rep.Truncated == rep.Runs {
					t.Fatalf("%s: want an exhausted search with some runs truncated, got %+v", tag, rep)
				}
				if want := int64(rep.Runs - rep.Pruned); checked.Load() != want {
					t.Errorf("%s: %d checks, want one per unpruned run (%d)", tag, checked.Load(), want)
				}
				if bad.Load() > 0 {
					t.Errorf("%s: %d of %d checked runs differ from a fresh replay", tag, bad.Load(), checked.Load())
				}
			}
		}
	}
}
