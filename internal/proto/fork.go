package proto

import (
	"fmt"
	"hash/maphash"

	"revisionist/internal/sched"
)

// Fingerprint and fork support for the protocol-process machines: the
// machine's configuration is its driver flags plus the wrapped Process
// state, and a fork is a deep copy (Process.Clone) rebound to a forked
// snapshot and result — the deep-clone contract checkpointed exploration
// needs.

// AppendFingerprint implements sched.Fingerprinter. Processes with a fast
// path implement sched.Fingerprinter themselves (all built-in algorithms
// do); anything else falls back to a %#v rendering, which is deterministic
// only for pointer-free, map-free process states.
func (mc *procMachine) AppendFingerprint(h *maphash.Hash) {
	mc.mustBeQuiescent()
	h.WriteByte(0x50)
	maphash.WriteComparable(h, mc.started)
	maphash.WriteComparable(h, mc.wantScan)
	maphash.WriteComparable(h, mc.done)
	if f, ok := mc.p.(sched.Fingerprinter); ok {
		f.AppendFingerprint(h)
		return
	}
	h.WriteByte(0x51)
	fmt.Fprintf(h, "%T%#v", mc.p, mc.p)
}

// AppendCanonicalFingerprint implements sched.CanonicalFingerprinter: the
// driver flags carry no process identity, so only the wrapped Process
// decides — a canonical-aware process rewrites its embedded pids and input
// values through the Canon, anything else takes its plain digest (which
// weakens the orbit collapse for that process but never merges distinct
// orbits).
func (mc *procMachine) AppendCanonicalFingerprint(h *maphash.Hash, c *sched.Canon) {
	mc.mustBeQuiescent()
	h.WriteByte(0x50)
	maphash.WriteComparable(h, mc.started)
	maphash.WriteComparable(h, mc.wantScan)
	maphash.WriteComparable(h, mc.done)
	if f, ok := mc.p.(sched.CanonicalFingerprinter); ok {
		f.AppendCanonicalFingerprint(h, c)
		return
	}
	if f, ok := mc.p.(sched.Fingerprinter); ok {
		f.AppendFingerprint(h)
		return
	}
	h.WriteByte(0x51)
	fmt.Fprintf(h, "%T%#v", mc.p, mc.p)
}

// mustBeQuiescent panics in the middle of a multi-step snapshot operation,
// whose cursor state the fingerprint leaves out: pruning needs atomic ones.
func (mc *procMachine) mustBeQuiescent() {
	if mc.op != nil {
		panic(fmt.Sprintf("proto: machine %d fingerprinted in the middle of a multi-step snapshot operation", mc.pid))
	}
}

// fork deep-copies the machine — driver flags, poised operation and cloned
// process — rebound to snapshot m and result res.
func (mc *procMachine) fork(m Snapshot, res *RunResult) *procMachine {
	cp := *mc
	cp.p = mc.p.Clone()
	cp.res = res
	return cp.bind(m)
}

// ForkMachines deep-copies machines built by Machines, rebinding them to the
// forked snapshot m and result res. It is the machine half of the system
// fork contract behind checkpointed exploration (trace.System.Fork).
func ForkMachines(machines []sched.Machine, m Snapshot, res *RunResult) []sched.Machine {
	out := make([]sched.Machine, len(machines))
	for i, mc := range machines {
		pm, ok := mc.(*procMachine)
		if !ok {
			panic(fmt.Sprintf("proto: ForkMachines on %T; only machines built by proto.Machines can fork", mc))
		}
		out[i] = pm.fork(m, res)
	}
	return out
}

// Clone returns a deep copy of the result.
func (r *RunResult) Clone() *RunResult {
	return &RunResult{
		Outputs: append([]Value(nil), r.Outputs...),
		Done:    append([]bool(nil), r.Done...),
		OpsBy:   append([]int(nil), r.OpsBy...),
	}
}

var (
	_ sched.Fingerprinter          = (*procMachine)(nil)
	_ sched.CanonicalFingerprinter = (*procMachine)(nil)
)
