package proto

import (
	"fmt"

	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// procMachine adapts a Process to the sched.Machine contract: one gated
// step per granted Resume. A Process is already a deterministic
// scan/update/output state machine (Assumption 1), so no goroutine or
// coroutine is needed to make it resumable — the sequential engine dispatches
// it directly.
type procMachine struct {
	pid      int
	p        Process
	m        Snapshot
	cs       cursorSnapshot // m, when its operations take several steps
	op       *shmem.SnapOp  // the multi-step operation in progress
	res      *RunResult
	poised   Op // the validated op peeked by advance, executed by the next Resume
	started  bool
	wantScan bool
	done     bool
}

// cursorSnapshot is a Snapshot whose operations take several steps, exposed
// as cursors (shmem.RegMWSnapshot, nst.TaggedRegisters).
type cursorSnapshot interface {
	StartScan(pid int) *shmem.SnapOp
	StartUpdate(pid, j int, v Value) *shmem.SnapOp
}

// Machines returns one resumable step machine per process, driving procs
// over the snapshot m and recording into res. An atomic snapshot
// (shmem.MWSnapshot) performs each Scan and Update in one step; a snapshot
// with cursors (StartScan, StartUpdate, as the register-built ones have) is
// stepped one cursor Step per Resume instead.
//
// The machines validate Assumption 1 and panic with ErrBadAlternation on
// violation (surfaced by the engine as an error).
func Machines(procs []Process, m Snapshot, res *RunResult) []sched.Machine {
	ms := make([]sched.Machine, len(procs))
	for pid, p := range procs {
		ms[pid] = (&procMachine{pid: pid, p: p, res: res}).bind(m)
	}
	return ms
}

// bind points the machine at snapshot m.
func (mc *procMachine) bind(m Snapshot) *procMachine {
	mc.m = m
	mc.cs, _ = m.(cursorSnapshot)
	return mc
}

// Resume implements sched.Machine: the first call checks the process's first
// poised operation; every later call executes the poised operation (or one
// step of it) and, once it completes, peeks the next one.
func (mc *procMachine) Resume() bool {
	if mc.done {
		return false
	}
	if !mc.started {
		mc.started = true
		mc.wantScan = true
		return mc.advance()
	}
	op := mc.poised
	var view []Value
	switch {
	case mc.cs != nil:
		if mc.op == nil && op.Kind == OpScan {
			mc.op = mc.cs.StartScan(mc.pid)
		} else if mc.op == nil {
			mc.op = mc.cs.StartUpdate(mc.pid, op.Comp, op.Val)
		}
		if !mc.op.Step() {
			return true
		}
		view, mc.op = mc.op.View(), nil
	case op.Kind == OpScan:
		view = mc.m.Scan(mc.pid)
	default:
		mc.m.Update(mc.pid, op.Comp, op.Val)
	}
	if op.Kind == OpScan {
		mc.p.ApplyScan(view)
	} else {
		mc.p.ApplyUpdate()
	}
	mc.res.OpsBy[mc.pid]++
	mc.wantScan = op.Kind == OpUpdate
	return mc.advance()
}

// advance peeks the next poised operation, validating alternation before
// the gate (still inside the current scheduling slot), and records the
// output if the process terminates. The peeked op is cached for the next
// Resume, so NextOp is dispatched once per operation.
func (mc *procMachine) advance() bool {
	op := mc.p.NextOp()
	switch op.Kind {
	case OpScan:
		if !mc.wantScan {
			panic(fmt.Errorf("%w: pid %d scan after scan", ErrBadAlternation, mc.pid))
		}
		mc.poised = op
		return true
	case OpUpdate:
		if mc.wantScan {
			panic(fmt.Errorf("%w: pid %d update after update", ErrBadAlternation, mc.pid))
		}
		mc.poised = op
		return true
	case OpOutput:
		mc.res.Outputs[mc.pid] = op.Val
		mc.res.Done[mc.pid] = true
		mc.done = true
		return false
	default:
		panic(fmt.Errorf("proto: pid %d poised with invalid op kind %v", mc.pid, op.Kind))
	}
}
