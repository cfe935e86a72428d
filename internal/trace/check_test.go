package trace

import (
	"fmt"
	"math/rand"
	"testing"

	"revisionist/internal/augsnap"
	"revisionist/internal/sched"
)

// runAugWorkload drives f processes over an m-component augmented snapshot
// with mixed operations under the given strategy and returns the log.
func runAugWorkload(t *testing.T, f, m, opsPer int, seed int64, strat sched.Strategy) *augsnap.AugSnapshot {
	t.Helper()
	runner := sched.NewSeqEngine(f, strat, sched.WithMaxSteps(1<<22))
	a := augsnap.New(runner, f, m)
	rngs := make([]*rand.Rand, f)
	for pid := range rngs {
		rngs[pid] = rand.New(rand.NewSource(seed*7919 + int64(pid)))
	}
	_, err := runner.RunMachines(sched.Processes(f, func(pid, i int) sched.Cursor {
		rng := rngs[pid]
		switch {
		case i == opsPer:
			return nil
		case rng.Intn(4) == 0:
			return a.StartScan(pid)
		}
		r := 1 + rng.Intn(m)
		comps := rng.Perm(m)[:r]
		vals := make([]augsnap.Value, r)
		for g := range vals {
			vals[g] = fmt.Sprintf("p%d-i%d-g%d", pid, i, g)
		}
		return a.StartBlockUpdate(pid, comps, vals)
	}))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return a
}

func TestAugSnapshotSpecRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		a := runAugWorkload(t, 3, 3, 8, seed, sched.NewRandom(seed))
		if err := Check(a.Log(), 3); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAugSnapshotSpecMoreProcesses(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		a := runAugWorkload(t, 5, 4, 6, seed, sched.NewRandom(seed+1000))
		if err := Check(a.Log(), 4); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAugSnapshotSpecAdversarialStrategies(t *testing.T) {
	strategies := map[string]func() sched.Strategy{
		"lowest":      func() sched.Strategy { return sched.Lowest{} },
		"highest":     func() sched.Strategy { return sched.Highest{} },
		"alternate1":  func() sched.Strategy { return sched.Alternator{Burst: 1} },
		"alternate3":  func() sched.Strategy { return sched.Alternator{Burst: 3} },
		"alternate17": func() sched.Strategy { return sched.Alternator{Burst: 17} },
	}
	for name, mk := range strategies {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				a := runAugWorkload(t, 4, 3, 6, seed, mk())
				if err := Check(a.Log(), 3); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestAugSnapshotSpecExhaustiveTiny(t *testing.T) {
	// Exhaustively explore all schedules (bounded) of 2 processes each doing
	// one Block-Update and one Scan over a 2-component augmented snapshot,
	// checking the full §3 specification after every run.
	factory := func(runner sched.Stepper) System {
		a := augsnap.New(runner, 2, 2)
		return System{
			Machines: sched.Processes(2, func(pid, i int) sched.Cursor {
				switch i {
				case 0:
					return a.StartBlockUpdate(pid, []int{pid, 1 - pid}, []augsnap.Value{pid * 10, pid*10 + 1})
				case 1:
					return a.StartScan(pid)
				}
				return nil
			}),
			Check: func(*sched.Result) error {
				return Check(a.Log(), 2)
			},
		}
	}
	rep, err := Explore(2, factory, ExploreOpts{MaxDepth: 40, MaxRuns: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		v := rep.Violations[0]
		t.Fatalf("spec violated on schedule %v: %v", v.Schedule, v.Err)
	}
	t.Logf("explored %d schedules (truncated %d, exhausted %v)", rep.Runs, rep.Truncated, rep.Exhausted)
}

func TestLinearizeOrdersYieldedUpdates(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := runAugWorkload(t, 3, 2, 6, seed, sched.NewRandom(seed+99))
		ops, err := Linearize(a.Log(), 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(ops); i++ {
			if ops[i].Seq < ops[i-1].Seq {
				t.Fatal("linearization not sorted by seq")
			}
		}
	}
}

func TestReplayTracksUpdates(t *testing.T) {
	ops := []MOp{
		{Seq: 1, Comp: 0, Val: "a"},
		{Seq: 2, IsScan: true},
		{Seq: 3, Comp: 1, Val: "b"},
	}
	states := Replay(ops, 2)
	if len(states) != 4 {
		t.Fatalf("states = %d", len(states))
	}
	if states[0][0] != nil || states[1][0] != "a" || states[3][1] != "b" {
		t.Fatalf("replay wrong: %v", states)
	}
}
