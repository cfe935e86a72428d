package sched_test

import (
	"testing"

	"revisionist/internal/sched"
)

// panicBefore is a machine that takes `left` gated steps, but panics on the
// granted Resume after `before` steps, before reaching its gate: the engine
// granted that step and no operation took it.
type panicBefore struct {
	gate          sched.Stepper
	pid           int
	left, before  int
	taken         int
	started, boom bool
}

func (m *panicBefore) Resume() bool {
	if !m.started {
		m.started = true
		return m.left > 0
	}
	if m.boom && m.taken == m.before {
		panic("protocol bug before the step")
	}
	m.gate.Step(m.pid, sched.Op{Object: "P", Kind: sched.OpWrite, Comp: -1})
	m.taken++
	return m.taken < m.left
}

// checkSteps fails t unless res.Steps equals want and the sum of StepsBy.
func checkSteps(t *testing.T, tag string, res *sched.Result, want int) {
	t.Helper()
	sum := 0
	for _, s := range res.StepsBy {
		sum += s
	}
	if res.Steps != want || res.Steps != sum {
		t.Fatalf("%s: Steps = %d, want %d hook calls, ΣStepsBy = %d", tag, res.Steps, want, sum)
	}
}

// TestStepsCountGrantedOperations pins Result.Steps on every kind of run,
// on both engines: it equals the number of step-hook calls and the sum of
// StepsBy for normal, halted, budget-cut and panicking runs and for
// machine-contract violations. A grant whose machine panics before its
// gate is not a step.
func TestStepsCountGrantedOperations(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		strat    func() sched.Strategy
		opts     []sched.Option
		machines func(gate sched.Stepper) []sched.Machine
		wantErr  bool
	}{
		{"normal", 3, func() sched.Strategy { return sched.RoundRobin{N: 3} }, nil,
			func(gate sched.Stepper) []sched.Machine { return asMachines(stepsMachines(gate, 3)) }, false},
		{"halted", 3, func() sched.Strategy {
			return sched.StrategyFunc(func(step int, enabled []int) int {
				if step >= 5 {
					return sched.Halt
				}
				return enabled[len(enabled)-1]
			})
		}, nil, func(gate sched.Stepper) []sched.Machine { return asMachines(stepsMachines(gate, 3)) }, false},
		{"budget", 2, func() sched.Strategy { return sched.RoundRobin{N: 2} }, []sched.Option{sched.WithMaxSteps(9)},
			func(gate sched.Stepper) []sched.Machine { return engineMachines(gate, 2, -1) }, true},
		{"panic-after-step", 2, func() sched.Strategy { return sched.RoundRobin{N: 2} }, nil,
			func(gate sched.Stepper) []sched.Machine {
				return sched.Processes(2, func(pid, i int) sched.Cursor {
					switch {
					case i == 2 && pid == 1:
						panic("protocol bug after the step")
					case i == 6:
						return nil
					}
					return gateOp(gate, pid, "X", -1)
				})
			}, true},
		{"panic-before-step", 3, func() sched.Strategy { return sched.RoundRobin{N: 3} }, nil,
			func(gate sched.Stepper) []sched.Machine {
				return []sched.Machine{
					&panicBefore{gate: gate, pid: 0, left: 5},
					&panicBefore{gate: gate, pid: 1, left: 5, before: 2, boom: true},
					&panicBefore{gate: gate, pid: 2, left: 5},
				}
			}, true},
		{"second-step", 2, func() sched.Strategy { return sched.RoundRobin{N: 2} }, nil,
			func(gate sched.Stepper) []sched.Machine {
				return []sched.Machine{
					&stepsMachine{gate: gate, pid: 0, left: 4, perResume: 1},
					&stepsMachine{gate: gate, pid: 1, left: 4, perResume: 2},
				}
			}, true},
	}
	for _, c := range cases {
		for _, e := range engines {
			tag := c.name + "/" + e.name
			out := runRecorded(e.mk, c.n, c.strat(), c.machines, c.opts...)
			if (out.err != nil) != c.wantErr {
				t.Fatalf("%s: err = %v, want error %v", tag, out.err, c.wantErr)
			}
			if out.res.Steps == 0 {
				t.Fatalf("%s: no steps taken", tag)
			}
			checkSteps(t, tag, out.res, len(out.steps))
		}
	}
}

// TestResumedStepsCountCheckpoint: a run resumed from a checkpoint counts
// the checkpoint's steps too. Its Steps is the checkpoint depth plus the
// hook calls of the resumed suffix, the same as the uninterrupted run's.
func TestResumedStepsCountCheckpoint(t *testing.T) {
	const n, at = 3, 5
	var refSteps, steps []sched.StepRecord
	ref := sched.NewSeqEngine(n, nil, sched.RecordSteps(&refSteps))
	ms := stepsMachines(ref, n)
	var cp *sched.SeqCheckpoint
	var forked []stepsMachine
	ref.Restart(sched.StrategyFunc(func(step int, enabled []int) int {
		if step == at {
			cp = new(sched.SeqCheckpoint)
			ref.CheckpointInto(cp)
			forked = make([]stepsMachine, n)
			for i, m := range ms {
				forked[i] = *m
			}
		}
		return enabled[step%len(enabled)]
	}), nil)
	want, err := ref.RunMachines(asMachines(ms))
	if err != nil {
		t.Fatal(err)
	}
	checkSteps(t, "uninterrupted", want, len(refSteps))
	if cp == nil {
		t.Fatalf("no checkpoint at step %d", at)
	}

	eng := sched.NewSeqEngine(n, nil, sched.RecordSteps(&steps))
	for round := 0; round < 2; round++ {
		steps = steps[:0]
		eng.Restart(sched.StrategyFunc(func(step int, enabled []int) int { return enabled[step%len(enabled)] }), cp)
		resumed := make([]sched.Machine, n)
		for i := range forked {
			m := forked[i]
			m.gate = eng
			resumed[i] = &m
		}
		got, err := eng.RunMachines(resumed)
		if err != nil {
			t.Fatal(err)
		}
		checkSteps(t, "resumed", got, at+len(steps))
		if got.Steps != want.Steps {
			t.Fatalf("resumed run took %d steps, the uninterrupted one %d", got.Steps, want.Steps)
		}
	}
}
