package sched

import (
	"reflect"
	"testing"
)

// GateOp is a test cursor: an operation by PID that takes Width gated steps
// (at least one), each admitted through Gate as Op.
type GateOp struct {
	Gate  Stepper
	PID   int
	Op    Op
	Width int
	taken int
}

// Step implements Cursor.
func (g *GateOp) Step() bool {
	g.Gate.Step(g.PID, g.Op)
	g.taken++
	return g.taken >= g.Width
}

// counterMachines returns machines in which each of n processes takes
// `steps` one-step reads of X; a negative count never finishes.
func counterMachines(r Stepper, n, steps int) []Machine {
	return Processes(n, func(pid, i int) Cursor {
		if i == steps {
			return nil
		}
		return &GateOp{Gate: r, PID: pid, Op: Op{Object: "X", Kind: OpRead, Comp: -1}, Width: 1}
	})
}

// TestProcessesStepOncePerResume: a machine of Processes runs to its first
// gate without a step, then performs exactly one gated step per Resume,
// moving to the next cursor within the Resume that completes one, and
// finishes in the Resume that completes the last.
func TestProcessesStepOncePerResume(t *testing.T) {
	var steps []Op
	gate := stepLog(func(pid int, op Op) { steps = append(steps, op) })
	m := Processes(1, func(_, i int) Cursor {
		if i == 2 {
			return nil
		}
		return &GateOp{Gate: gate, Op: Op{Object: "X", Kind: OpRead, Comp: i}, Width: 2 + i}
	})[0]
	var alive []bool
	for a := true; a; {
		a = m.Resume()
		alive = append(alive, a)
	}
	if want := []bool{true, true, true, true, true, false}; !reflect.DeepEqual(alive, want) {
		t.Fatalf("Resume results %v, want %v", alive, want)
	}
	if len(steps) != 5 || steps[0].Comp != 0 || steps[1].Comp != 0 || steps[2].Comp != 1 || steps[4].Comp != 1 {
		t.Fatalf("gated steps %v, want 2 of op 0 then 3 of op 1", steps)
	}
	if m := Processes(1, func(int, int) Cursor { return nil })[0]; m.Resume() {
		t.Fatal("a process with no operations must finish on its first Resume")
	}
}

// stepLog is a Stepper that hands every step to a callback.
type stepLog func(pid int, op Op)

func (f stepLog) Step(pid int, op Op) { f(pid, op) }
