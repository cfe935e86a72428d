package shmem

import (
	"fmt"

	"revisionist/internal/sched"
)

// This file implements the fingerprint contract (sched.Fingerprinter) for
// every base object: the object's semantic state — the values a future
// operation could observe — is appended to the configuration's fingerprint
// stream (sched.FP), under a symmetry-group element c (nil: the identity).
// Process-indexed state reorders by c's slot sources, owned components by
// its component sources, embedded pids are rewritten and declared input
// values encode as role tokens. Operation counters (OpCounts) are
// statistics, not state, and are never appended. Each object leads with a
// distinct tag byte and length-prefixes its components, whatever c is, so
// concatenated fingerprints stay unambiguous and each stream is injective
// in the renamed configuration.

// Object tag bytes. Values get their own tag space in AppendValue.
const (
	fpRegister byte = 0x10 + iota
	fpSWSnapshot
	fpMWSnapshot
	fpMaxSnapshot
	fpFetchInc
	fpRegSW
	fpRegMW
)

// ValueFingerprinter is implemented by value types stored in registers or
// snapshot components that want a fast, collision-safe fingerprint path.
// Composite values whose state embeds process ids or declared input values
// (the Afek records, Paxos registers) rewrite them through c; a nil c is the
// identity. A value of any other type that is not a built-in shape (see
// AppendValue) cannot be fingerprinted.
type ValueFingerprinter interface {
	AppendValueFingerprint(fp *sched.FP, c *sched.Canon)
}

// AppendValue appends one component value to the fingerprint under c (nil:
// the identity). A scalar that c declares an input value encodes as its
// renamed role token. Built-in scalar and slice shapes are dispatched
// directly; composite protocol values implement ValueFingerprinter. Any
// other type panics, naming the type: it has no encoding to hash.
func AppendValue(fp *sched.FP, v Value, c *sched.Canon) {
	if c != nil { // the plain fingerprint skips the type switch
		switch v.(type) {
		case bool, int, int64, float64, string:
			// Input values are scalars. Composites are never looked up:
			// they may be unhashable.
			if role, ok := c.Role(v); ok {
				fp.Byte(0x0e)
				fp.Int(role)
				return
			}
		}
	}
	switch x := v.(type) {
	case nil:
		fp.Byte(0x00)
	case ValueFingerprinter:
		fp.Byte(0x01)
		x.AppendValueFingerprint(fp, c)
	case bool:
		fp.Byte(0x02)
		fp.Bool(x)
	case int:
		fp.Byte(0x03)
		fp.Int(x)
	case int64:
		fp.Byte(0x04)
		fp.Int64(x)
	case float64:
		fp.Byte(0x05)
		fp.Float64(x)
	case string:
		fp.Byte(0x06)
		fp.Str(x)
	case []Value:
		fp.Byte(0x07)
		fp.Int(len(x))
		for _, e := range x {
			AppendValue(fp, e, c)
		}
	case []float64:
		fp.Byte(0x08)
		fp.Int(len(x))
		for _, e := range x {
			fp.Float64(e)
		}
	case []int:
		fp.Byte(0x09)
		fp.Int(len(x))
		for _, e := range x {
			fp.Int(e)
		}
	default:
		panic(fmt.Sprintf("shmem: value of type %T has no fingerprint encoding (implement ValueFingerprinter)", v))
	}
}

// AppendFingerprint implements sched.Fingerprinter.
func (r *Register) AppendFingerprint(fp *sched.FP, c *sched.Canon) {
	fp.Byte(fpRegister)
	AppendValue(fp, r.v, c)
}

// AppendFingerprint implements sched.Fingerprinter. The components of a
// single-writer snapshot are process-indexed, so they reorder with the
// process slots.
func (s *SWSnapshot) AppendFingerprint(fp *sched.FP, c *sched.Canon) {
	fp.Byte(fpSWSnapshot)
	fp.Int(len(s.comps))
	for j := range s.comps {
		AppendValue(fp, s.comps[c.SlotSrc(j)], c)
	}
}

// AppendFingerprint implements sched.Fingerprinter. Multi-writer components
// are shared, but a class member may own some of them (address them by its
// identity); those are co-permuted.
func (s *MWSnapshot) AppendFingerprint(fp *sched.FP, c *sched.Canon) {
	fp.Byte(fpMWSnapshot)
	fp.Int(len(s.comps))
	for j := range s.comps {
		AppendValue(fp, s.comps[c.CompSrc(j)], c)
	}
}

// AppendFingerprint implements sched.Fingerprinter.
func (s *MaxSnapshot) AppendFingerprint(fp *sched.FP, c *sched.Canon) {
	fp.Byte(fpMaxSnapshot)
	fp.Int(len(s.comps))
	for j := range s.comps {
		AppendValue(fp, s.comps[c.CompSrc(j)], c)
	}
}

// AppendFingerprint implements sched.Fingerprinter (a fetch-and-increment
// counter has no process identity in its state).
func (f *FetchInc) AppendFingerprint(fp *sched.FP, _ *sched.Canon) {
	fp.Byte(fpFetchInc)
	fp.Int(f.v)
}

// AppendFingerprint implements sched.Fingerprinter: the register-built
// snapshot's state is the state of its underlying registers, including the
// per-writer sequence numbers and embedded views of the Afek et al.
// construction (they steer future scans, so they are semantic state). The
// registers are one per writer, so they reorder with the process slots;
// their swRec contents canonicalize recursively.
func (s *RegSWSnapshot) AppendFingerprint(fp *sched.FP, c *sched.Canon) {
	fp.Byte(fpRegSW)
	fp.Int(len(s.regs))
	for j := range s.regs {
		s.regs[c.SlotSrc(j)].AppendFingerprint(fp, c)
	}
}

// AppendFingerprint implements sched.Fingerprinter: the registers are shared
// components (co-permuted when owned), while the private sequence counters
// are process-indexed and reorder with the slots.
func (s *RegMWSnapshot) AppendFingerprint(fp *sched.FP, c *sched.Canon) {
	fp.Byte(fpRegMW)
	fp.Int(len(s.regs))
	for j := range s.regs {
		s.regs[c.CompSrc(j)].AppendFingerprint(fp, c)
	}
	for j := range s.seq {
		fp.Int(s.seq[c.SlotSrc(j)])
	}
}

// AppendValueFingerprint implements ValueFingerprinter for the single-writer
// register record. The embedded view is one entry per writer register, so
// it reorders with the process slots.
func (r swRec) AppendValueFingerprint(fp *sched.FP, c *sched.Canon) {
	fp.Byte(0x20)
	fp.Int(r.Seq)
	AppendValue(fp, r.Val, c)
	fp.Byte(0x07)
	fp.Int(len(r.View))
	for j := range r.View {
		AppendValue(fp, r.View[c.SlotSrc(j)], c)
	}
}

// AppendValueFingerprint implements ValueFingerprinter for the multi-writer
// register record. Writer is a raw pid and is rewritten; the embedded view
// is one entry per shared component and reorders with owned components.
func (r mwRec) AppendValueFingerprint(fp *sched.FP, c *sched.Canon) {
	fp.Byte(0x21)
	fp.Int(c.Pid(r.Writer))
	fp.Int(r.Seq)
	AppendValue(fp, r.Val, c)
	fp.Byte(0x07)
	fp.Int(len(r.View))
	for j := range r.View {
		AppendValue(fp, r.View[c.CompSrc(j)], c)
	}
}

// CopyFrom overwrites the snapshot's state with src's: component values and
// operation counts. The receiver keeps its name, its stepper and its
// recorder (a per-run observer, which src's history does not replay into).
// Component values are immutable once written, so copying them is a deep
// copy. Both snapshots must have the same number of components.
func (s *MWSnapshot) CopyFrom(src *MWSnapshot) {
	if len(s.comps) != len(src.comps) {
		panic(fmt.Sprintf("shmem: MWSnapshot %q CopyFrom a %d-component snapshot into %d components", s.name, len(src.comps), len(s.comps)))
	}
	copy(s.comps, src.comps)
	s.updates, s.scans = src.updates, src.scans
}

// Compile-time checks that every base object implements the contract.
var (
	_ sched.Fingerprinter = (*Register)(nil)
	_ sched.Fingerprinter = (*SWSnapshot)(nil)
	_ sched.Fingerprinter = (*MWSnapshot)(nil)
	_ sched.Fingerprinter = (*MaxSnapshot)(nil)
	_ sched.Fingerprinter = (*FetchInc)(nil)
	_ sched.Fingerprinter = (*RegSWSnapshot)(nil)
	_ sched.Fingerprinter = (*RegMWSnapshot)(nil)

	_ ValueFingerprinter = swRec{}
	_ ValueFingerprinter = mwRec{}
)
