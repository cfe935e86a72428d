package trace

import (
	"fmt"
	"testing"

	"revisionist/internal/augsnap"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
	"revisionist/internal/spec"
)

// paxosLikeSystem is a tiny 2-process round-racing protocol (phase-structured
// like the repository's Paxos): the fuzzer should find schedules that force
// retries, inflating the step count well beyond the contention-free optimum.
func paxosLikeSystem(runner sched.Stepper) System {
	type reg struct {
		LRE, LRWW int
		Val       shmem.Value
	}
	snap := shmem.NewMWSnapshot("M", runner, 2, nil)
	get := func(v shmem.Value) reg {
		if v == nil {
			return reg{}
		}
		return v.(reg)
	}
	// Each process loops through up to 30 rounds of five one-step phases:
	// 0 scan its own register, 1 announce round r, 2 scan for conflicts,
	// 3 write the value for round r, 4 scan to confirm. A conflict moves it
	// to round r+2 and back to phase 0.
	type proc struct {
		r, round, phase int
		my              reg
		val             shmem.Value
		done            bool
	}
	procs := [2]proc{{r: 1}, {r: 2}}
	outputs := [2]shmem.Value{}
	retry := func(p *proc) { p.r, p.round, p.phase = p.r+2, p.round+1, 0 }
	step := func(pid int) {
		p := &procs[pid]
		switch p.phase {
		case 0:
			p.my = get(snap.Scan(pid)[pid])
			p.phase = 1
		case 1:
			snap.Update(pid, pid, reg{LRE: p.r, LRWW: p.my.LRWW, Val: p.my.Val})
			p.phase = 2
		case 2:
			conflict := false
			p.val = pid * 100
			best := 0
			for _, raw := range snap.Scan(pid) {
				g := get(raw)
				if g.LRE > p.r || g.LRWW > p.r {
					conflict = true
				}
				if g.LRWW > best {
					best, p.val = g.LRWW, g.Val
				}
			}
			if conflict {
				retry(p)
				return
			}
			p.phase = 3
		case 3:
			snap.Update(pid, pid, reg{LRE: p.r, LRWW: p.r, Val: p.val})
			p.phase = 4
		case 4:
			for _, raw := range snap.Scan(pid) {
				if get(raw).LRE > p.r {
					retry(p)
					return
				}
			}
			outputs[pid], p.done = p.val, true
		}
	}
	return System{
		Machines: sched.Processes(2, func(pid, _ int) sched.Cursor {
			if p := &procs[pid]; p.done || p.round == 30 {
				return nil
			}
			return stepFunc(func() { step(pid) })
		}),
		Check: func(*sched.Result) error {
			if outputs[0] != nil && outputs[1] != nil && outputs[0] != outputs[1] {
				return fmt.Errorf("agreement violated: %v vs %v", outputs[0], outputs[1])
			}
			return nil
		},
	}
}

func TestFuzzFindsContention(t *testing.T) {
	steps := func(res *sched.Result) float64 { return float64(res.Steps) }
	// Baseline: one random run.
	base, err := Fuzz(2, paxosLikeSystem, steps, FuzzOpts{Iterations: 1, Seed: 2, ScheduleLen: 24, MaxSteps: 5000})
	if err != nil {
		t.Fatal(err)
	}
	fuzzed, err := Fuzz(2, paxosLikeSystem, steps, FuzzOpts{Iterations: 400, Seed: 2, ScheduleLen: 24, MaxSteps: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if fuzzed.BestScore < base.BestScore {
		t.Fatalf("hill climbing regressed: %v -> %v", base.BestScore, fuzzed.BestScore)
	}
	if fuzzed.Evaluated != 400 {
		t.Fatalf("evaluated = %d", fuzzed.Evaluated)
	}
	t.Logf("steps: baseline %v, fuzzed %v", base.BestScore, fuzzed.BestScore)
}

func TestFuzzMaximizesYields(t *testing.T) {
	// The yield count lives in the per-run operation log, so the metric is a
	// per-system Score (evaluations run concurrently under Workers > 1; a
	// closure over one shared snapshot would race).
	factory := func(runner sched.Stepper) System {
		a := augsnap.New(runner, 3, 2)
		return System{
			Machines: sched.Processes(3, func(pid, i int) sched.Cursor {
				if i == 4 {
					return nil
				}
				return a.StartBlockUpdate(pid, []int{pid % 2}, []augsnap.Value{i})
			}),
			Check: func(*sched.Result) error {
				return Check(a.Log(), 2)
			},
			Score: func(*sched.Result) float64 {
				n := 0.0
				for _, bu := range a.Log().BUs {
					if bu.Yielded {
						n++
					}
				}
				return n
			},
		}
	}
	rep, err := Fuzz(3, factory, nil, FuzzOpts{Iterations: 120, Seed: 3, ScheduleLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestScore == 0 {
		t.Fatal("fuzzer found no yielding schedule; with 3 contending processes it should")
	}
	t.Logf("max yields found: %v", rep.BestScore)
}

func TestFuzzValidatesSafetyEveryRun(t *testing.T) {
	// Every evaluated schedule runs the Check; a protocol with a reachable
	// safety violation surfaces as an error.
	factory := func(runner sched.Stepper) System {
		reg := shmem.NewRegister("R", runner, nil)
		var outs [2]shmem.Value
		// Each process reads; if the register is empty it writes its pid;
		// then it reads again and outputs what it reads.
		var empty [2]bool
		return System{
			Machines: sched.Processes(2, func(pid, i int) sched.Cursor {
				switch {
				case i == 0:
					return stepFunc(func() { empty[pid] = reg.Read(pid) == nil })
				case i == 1 && empty[pid]:
					return stepFunc(func() { reg.Write(pid, pid) })
				case i == 1 || i == 2 && empty[pid]:
					return stepFunc(func() { outs[pid] = reg.Read(pid) })
				}
				return nil
			}),
			Check: func(*sched.Result) error {
				return (spec.Consensus{}).Validate([]spec.Value{0, 1}, []spec.Value{outs[0], outs[1]})
			},
		}
	}
	_, err := Fuzz(2, factory, func(res *sched.Result) float64 { return float64(res.Steps) },
		FuzzOpts{Iterations: 200, Seed: 7, ScheduleLen: 8})
	if err == nil {
		t.Fatal("fuzzer never hit the reachable violation of the 1-register protocol")
	}
}
