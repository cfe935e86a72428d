package proto

import (
	"fmt"

	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// Fingerprint and restore support for the protocol-process machines: the
// machine's configuration is its driver flags plus the wrapped Process
// state, and a restore copies one system's configuration into another's
// machines in place — the contract checkpointed exploration needs.

// AppendFingerprint implements sched.Fingerprinter. The driver flags carry
// no process identity, so only the wrapped Process sees c. Processes with a
// fast path implement sched.Fingerprinter themselves (all built-in
// algorithms do); anything else falls back to a %#v rendering, which is
// deterministic only for pointer-free, map-free process states and, with
// no pids or input values rewritten, can only weaken an orbit collapse,
// never merge distinct orbits.
func (mc *procMachine) AppendFingerprint(fp *sched.FP, c *sched.Canon) {
	mc.mustBeQuiescent()
	fp.Byte(0x50)
	fp.Bool(mc.started)
	fp.Bool(mc.wantScan)
	fp.Bool(mc.done)
	if f, ok := mc.p.(sched.Fingerprinter); ok {
		f.AppendFingerprint(fp, c)
		return
	}
	fp.Byte(0x51)
	fp.Rendering(mc.p)
}

// mustBeQuiescent panics in the middle of a multi-step snapshot operation,
// whose cursor state the fingerprint leaves out: pruning needs atomic ones.
func (mc *procMachine) mustBeQuiescent() {
	if mc.op != nil {
		panic(fmt.Sprintf("proto: machine %d fingerprinted in the middle of a multi-step snapshot operation", mc.pid))
	}
}

// Restorer is an optional Process method: RestoreFrom overwrites the
// receiver's state with src's, reusing the receiver's storage, so that the
// two share no mutable state afterwards. src is a process of the receiver's
// concrete type (the same pid of a system built by the same factory).
// RestoreMachines uses it where a process has it and falls back to
// Process.Clone, which allocates, where it does not.
type Restorer interface {
	RestoreFrom(src Process)
}

// RestoreMachines overwrites the configuration of the machines dst with
// that of src: the snapshot's components, the run result, and every
// machine's driver flags, poised operation and process state. Both must be
// built by Machines over a shmem.MWSnapshot, for the same processes; the
// snapshot and result are reached through the machines. dst keeps its own
// snapshot (and so its gate), its result and its scan buffers, and shares
// nothing mutable with src afterwards. It is the machine half of the
// in-place restore behind checkpointed exploration (trace.System.Restore).
func RestoreMachines(dst, src []sched.Machine) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("proto: RestoreMachines from %d machines into %d", len(src), len(dst)))
	}
	for i := range dst {
		d, s := asProcMachine(dst[i]), asProcMachine(src[i])
		if i == 0 {
			restoreShared(d, s)
		}
		d.restore(s)
	}
}

// asProcMachine returns m as a machine built by Machines, or panics.
func asProcMachine(m sched.Machine) *procMachine {
	pm, ok := m.(*procMachine)
	if !ok {
		panic(fmt.Sprintf("proto: RestoreMachines on %T; only machines built by proto.Machines restore", m))
	}
	return pm
}

// restoreShared copies what all the machines of one system share: the
// snapshot and the result.
func restoreShared(d, s *procMachine) {
	dm, dok := d.m.(*shmem.MWSnapshot)
	sm, sok := s.m.(*shmem.MWSnapshot)
	if !dok || !sok {
		panic(fmt.Sprintf("proto: RestoreMachines from a %T into a %T; only machines over a shmem.MWSnapshot restore", s.m, d.m))
	}
	dm.CopyFrom(sm)
	d.res.CopyFrom(s.res)
}

// restore copies src's driver flags, poised operation and process state
// into the machine. Over an atomic snapshot no operation is ever in
// progress between steps, so there is no cursor to copy.
func (mc *procMachine) restore(src *procMachine) {
	mc.poised, mc.started, mc.wantScan, mc.done = src.poised, src.started, src.wantScan, src.done
	if r, ok := mc.p.(Restorer); ok {
		r.RestoreFrom(src.p)
		return
	}
	mc.p = src.p.Clone()
}

// CopyFrom overwrites the result with src's, a result for as many
// processes.
func (r *RunResult) CopyFrom(src *RunResult) {
	copy(r.Outputs, src.Outputs)
	copy(r.Done, src.Done)
	copy(r.OpsBy, src.OpsBy)
}

var _ sched.Fingerprinter = (*procMachine)(nil)
