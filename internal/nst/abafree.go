package nst

import (
	"fmt"

	"revisionist/internal/shmem"
)

// This file implements the mechanism behind Corollary 36: a protocol that
// uses only registers can be made ABA-free by appending the writer's
// identifier and a strictly increasing per-writer sequence number to every
// write (the tag is invisible to readers of the value). Over an ABA-free set
// of registers, an obstruction-free double collect implements a linearizable
// scan, so an m-component object can be simulated from the m registers and
// Theorem 35 applies.

// tagged is a register value with its ABA-freedom tag.
type tagged struct {
	Val shmem.Value
	PID int
	Seq int
}

// TaggedRegisters is a set of m multi-writer registers with ABA-free writes
// and an obstruction-free double-collect Scan.
type TaggedRegisters struct {
	regs []*shmem.Register
	m    int
	seq  []int
}

// NewTaggedRegisters returns m registers shared by nproc processes.
func NewTaggedRegisters(name string, st shmem.Stepper, m, nproc int) *TaggedRegisters {
	t := &TaggedRegisters{m: m, seq: make([]int, nproc)}
	t.regs = make([]*shmem.Register, m)
	for j := range t.regs {
		t.regs[j] = shmem.NewRegister(fmt.Sprintf("%s[%d]", name, j), st, tagged{PID: -1})
	}
	return t
}

// Components returns m.
func (t *TaggedRegisters) Components() int { return t.m }

// Write sets register j to v, tagged so that no register ever returns to a
// previous value (ABA-freedom).
func (t *TaggedRegisters) Write(pid, j int, v shmem.Value) {
	t.seq[pid]++
	t.regs[j].Write(pid, tagged{Val: v, PID: pid, Seq: t.seq[pid]})
}

// Update makes TaggedRegisters satisfy proto.Snapshot so determinized
// protocols can run over it directly.
func (t *TaggedRegisters) Update(pid, j int, v shmem.Value) { t.Write(pid, j, v) }

// StartUpdate is Update as a one-step cursor, the counterpart of StartScan.
func (t *TaggedRegisters) StartUpdate(pid, j int, v shmem.Value) *shmem.SnapOp {
	return shmem.NewSnapOp(nil, pid, nil, func([]shmem.Value) { t.Write(pid, j, v) }, nil)
}

// Scan double-collects until two consecutive collects return identical tags.
// Because writes are ABA-free, equal collects imply the registers held
// exactly these values at every point between the two collects, so the scan
// linearizes anywhere in between. Scan is obstruction-free: it completes
// after two collects whenever it runs without concurrent writes.
func (t *TaggedRegisters) Scan(pid int) []shmem.Value { return t.StartScan(pid).Run() }

// StartScan begins a Scan by pid without taking a step; the cursor takes one
// register read per Step.
func (t *TaggedRegisters) StartScan(pid int) *shmem.SnapOp {
	return shmem.NewSnapOp(t.regs, pid, t.settle, nil, nil)
}

// settle accepts two collects with identical tags.
func (t *TaggedRegisters) settle(prev, cur []shmem.Value) ([]shmem.Value, bool) {
	for j := range cur {
		if cur[j] != prev[j] {
			return nil, false
		}
	}
	out := make([]shmem.Value, t.m)
	for j, v := range cur {
		out[j] = v.(tagged).Val
	}
	return out, true
}
