package sched

import (
	"reflect"
	"testing"
)

// countMachine is a minimal Machine for checkpoint tests: pid performs
// `left` gated writes. Its whole state is copyable, so a fork is a struct
// copy rebound to the resuming engine.
type countMachine struct {
	e       *SeqEngine
	pid     int
	left    int
	started bool
}

func (m *countMachine) Resume() bool {
	if !m.started {
		m.started = true
		return m.left > 0
	}
	m.e.Step(m.pid, Op{Object: "C", Kind: OpWrite, Comp: -1})
	m.left--
	return m.left > 0
}

// cpAt wraps a strategy and captures an engine checkpoint just before the
// given step is granted — the quiescent point Checkpoint documents.
type cpAt struct {
	inner Strategy
	eng   *SeqEngine
	at    int
	cp    *SeqCheckpoint
	// machineState records the machines' fields at the checkpoint so the
	// test can fork them later.
	machines []*countMachine
	forked   []countMachine
}

func (c *cpAt) Pick(step int, enabled []int) int {
	if step == c.at {
		c.cp = c.eng.Checkpoint()
		c.forked = make([]countMachine, len(c.machines))
		for i, m := range c.machines {
			c.forked[i] = *m
		}
	}
	return c.inner.Pick(step, enabled)
}

// TestSeqEngineCheckpointResume: checkpoint a run mid-flight, resume it with
// forked machines on a restarted engine, and require the resumed run's
// result — trace, per-pid step counts, finished flags — to be byte-identical
// to the uninterrupted run's.
func TestSeqEngineCheckpointResume(t *testing.T) {
	const n, ops, at = 3, 4, 5
	mkMachines := func(e *SeqEngine) ([]Machine, []*countMachine) {
		ms := make([]Machine, n)
		cs := make([]*countMachine, n)
		for pid := 0; pid < n; pid++ {
			cs[pid] = &countMachine{e: e, pid: pid, left: ops}
			ms[pid] = cs[pid]
		}
		return ms, cs
	}

	// Reference: one uninterrupted run under round-robin.
	ref := NewSeqEngine(n, RoundRobin{N: n})
	refMs, _ := mkMachines(ref)
	want, err := ref.RunMachines(refMs)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpointed: same schedule, captured at step `at`.
	eng := NewSeqEngine(n, nil)
	ms, cs := mkMachines(eng)
	rec := &cpAt{inner: RoundRobin{N: n}, eng: eng, at: at, machines: cs}
	eng.core.strat = rec
	if _, err := eng.RunMachines(ms); err != nil {
		t.Fatal(err)
	}
	if rec.cp == nil {
		t.Fatal("checkpoint not captured")
	}
	if rec.cp.Depth() != at {
		t.Fatalf("checkpoint depth %d, want %d", rec.cp.Depth(), at)
	}

	// Resume twice from the same checkpoint on one engine: checkpoints are
	// reusable, and so is the engine.
	res := NewSeqEngine(n, nil)
	for round := 0; round < 2; round++ {
		res.Restart(RoundRobin{N: n}, rec.cp)
		forked := make([]Machine, n)
		for i := range rec.forked {
			m := rec.forked[i] // fresh copy per resume
			m.e = res
			forked[i] = &m
		}
		got, err := res.RunMachines(forked)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(got.Trace, want.Trace) {
			t.Fatalf("round %d: resumed trace differs:\ngot  %v\nwant %v", round, got.Trace, want.Trace)
		}
		if !reflect.DeepEqual(got.StepsBy, want.StepsBy) || !reflect.DeepEqual(got.Finished, want.Finished) {
			t.Fatalf("round %d: resumed result differs: %+v vs %+v", round, got, want)
		}
	}
}
