package sched_test

import (
	"errors"
	"strings"
	"testing"

	"revisionist/internal/sched"
)

// The restart tests pin SeqEngine.Restart: a restarted engine must behave
// exactly like a fresh one, whatever its buffers held before, and a warm
// restart must not allocate beyond the run's Result.

// dirty runs a workload on eng that leaves every buffer non-zero: steps by
// every pid, finished flags set, a long trace.
func dirty(t *testing.T, eng *sched.SeqEngine, n int) {
	t.Helper()
	eng.Restart(sched.RoundRobin{N: n}, nil)
	if _, err := eng.RunMachines(engineMachines(eng, n, 11)); err != nil {
		t.Fatalf("dirtying run: %v", err)
	}
}

// TestRestartMatchesFreshEngine: under every equivalence strategy, a run on
// an engine restarted after a dirtying run — machines of multi-step and of
// one-step operations, twice in a row — equals the same run on a fresh
// engine.
func TestRestartMatchesFreshEngine(t *testing.T) {
	const n = 4
	for name, mk := range equivalenceStrategies(n) {
		t.Run(name, func(t *testing.T) {
			fresh := sched.NewSeqEngine(n, mk())
			wantWide, wantWideErr := fresh.RunMachines(wideMachines(fresh, n))
			fresh = sched.NewSeqEngine(n, mk())
			wantMach, wantMachErr := fresh.RunMachines(asMachines(stepsMachines(fresh, n)))

			eng := sched.NewSeqEngine(n, nil)
			for round := 0; round < 2; round++ {
				dirty(t, eng, n)
				eng.Restart(mk(), nil)
				got, err := eng.RunMachines(wideMachines(eng, n))
				sameResult(t, wantWide, got, wantWideErr, err)

				dirty(t, eng, n)
				eng.Restart(mk(), nil)
				got, err = eng.RunMachines(asMachines(stepsMachines(eng, n)))
				sameResult(t, wantMach, got, wantMachErr, err)
			}
		})
	}
}

// pickLog wraps a strategy and records every decision's enabled set, so a
// fresh copy of the strategy can be brought to the state the wrapped one had
// at any step by replaying the calls.
type pickLog struct {
	inner   sched.Strategy
	enabled [][]int
	onPick  func(step int)
}

func (l *pickLog) Pick(step int, enabled []int) int {
	if l.onPick != nil {
		l.onPick(step)
	}
	l.enabled = append(l.enabled, append([]int(nil), enabled...))
	return l.inner.Pick(step, enabled)
}

// TestRestartFromCheckpointMatchesUninterrupted: under every equivalence
// strategy, a run checkpointed at step `at` and resumed with forked machines
// on an engine restarted after a dirtying run equals the uninterrupted run.
// The resumed strategy is a fresh copy fast-forwarded through the first `at`
// decisions, so stateful strategies continue where they were.
func TestRestartFromCheckpointMatchesUninterrupted(t *testing.T) {
	const n, at = 4, 5
	for name, mk := range equivalenceStrategies(n) {
		t.Run(name, func(t *testing.T) {
			ref := sched.NewSeqEngine(n, nil)
			ms := stepsMachines(ref, n)
			var cp *sched.SeqCheckpoint
			var forked []stepsMachine
			log := &pickLog{inner: mk(), onPick: func(step int) {
				if step == at {
					cp = ref.Checkpoint()
					forked = make([]stepsMachine, n)
					for i, m := range ms {
						forked[i] = *m
					}
				}
			}}
			ref.Restart(log, nil)
			want, wantErr := ref.RunMachines(asMachines(ms))
			if cp == nil {
				t.Fatalf("run ended before step %d", at)
			}

			eng := sched.NewSeqEngine(n, nil)
			for round := 0; round < 2; round++ {
				dirty(t, eng, n)
				strat := mk()
				for step, en := range log.enabled[:at] {
					strat.Pick(step, en)
				}
				eng.Restart(strat, cp)
				resumed := make([]sched.Machine, n)
				for i := range forked {
					m := forked[i]
					m.gate = eng
					resumed[i] = &m
				}
				got, err := eng.RunMachines(resumed)
				sameResult(t, want, got, wantErr, err)
			}
		})
	}
}

// TestRestartDuringRunPanics: Restart from inside Strategy.Pick is a misuse
// and panics with a message naming it; the engine is usable again after.
func TestRestartDuringRunPanics(t *testing.T) {
	eng := sched.NewSeqEngine(2, nil)
	eng.Restart(sched.StrategyFunc(func(step int, enabled []int) int {
		eng.Restart(sched.Lowest{}, nil)
		return enabled[0]
	}), nil)
	func() {
		defer func() {
			v := recover()
			if msg, _ := v.(string); !strings.Contains(msg, "Restart called during a run") {
				t.Fatalf("recovered %v, want the Restart-during-run panic", v)
			}
		}()
		eng.RunMachines(asMachines(stepsMachines(eng, 2)))
		t.Fatal("RunMachines returned; want a panic")
	}()
	eng.Restart(sched.Lowest{}, nil)
	if _, err := eng.RunMachines(asMachines(stepsMachines(eng, 2))); err != nil {
		t.Fatalf("run after the misuse: %v", err)
	}
}

// TestRunWithoutRestartIsReused: a second run without a Restart in between
// still fails with ErrReused.
func TestRunWithoutRestartIsReused(t *testing.T) {
	eng := sched.NewSeqEngine(2, sched.Lowest{})
	if _, err := eng.RunMachines(asMachines(stepsMachines(eng, 2))); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunMachines(asMachines(stepsMachines(eng, 2))); !errors.Is(err, sched.ErrReused) {
		t.Fatalf("second RunMachines err = %v, want ErrReused", err)
	}
	eng.Restart(sched.Lowest{}, nil)
	if _, err := eng.RunMachines(asMachines(stepsMachines(eng, 2))); err != nil {
		t.Fatalf("RunMachines after Restart: %v", err)
	}
}

// stepFree finishes on its first Resume without taking a step.
type stepFree struct{}

func (stepFree) Resume() bool { return false }

// TestWarmRestartAllocatesOnlyTheResult pins the point of Restart: once an
// engine has run, a Restart plus a run allocates at most the *Result — for
// step-free machines, stepping machines, and a resume from a checkpoint.
func TestWarmRestartAllocatesOnlyTheResult(t *testing.T) {
	const n = 3
	eng := sched.NewSeqEngine(n, nil)
	free := []sched.Machine{stepFree{}, stepFree{}, stepFree{}}
	steppers := stepsMachines(eng, n)
	machines := asMachines(steppers)
	reset := func() {
		for pid, m := range steppers {
			m.left, m.started = 3+2*pid, false
		}
	}
	var cp *sched.SeqCheckpoint
	eng.Restart(sched.StrategyFunc(func(step int, enabled []int) int {
		if step == 4 {
			cp = eng.Checkpoint()
		}
		return enabled[0]
	}), nil)
	if _, err := eng.RunMachines(machines); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func()
	}{
		{"step-free", func() {
			eng.Restart(sched.Lowest{}, nil)
			if _, err := eng.RunMachines(free); err != nil {
				t.Fatal(err)
			}
		}},
		{"stepping", func() {
			reset()
			eng.Restart(sched.Lowest{}, nil)
			if _, err := eng.RunMachines(machines); err != nil {
				t.Fatal(err)
			}
		}},
		{"resumed", func() {
			// Poised machines past their first gate: the run continues from
			// the checkpoint's state.
			reset()
			for _, m := range steppers {
				m.started = true
			}
			eng.Restart(sched.Lowest{}, cp)
			if _, err := eng.RunMachines(machines); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		c.run() // warm
		if a := testing.AllocsPerRun(100, c.run); a > 1 {
			t.Errorf("%s: warm Restart + RunMachines allocates %.1f objects per run, want at most 1 (the Result)", c.name, a)
		}
	}
}
