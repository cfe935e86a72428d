package shmem

import (
	"fmt"
	"hash/maphash"

	"revisionist/internal/sched"
)

// This file implements the fingerprint contract (sched.Fingerprinter) for
// every base object: the object's semantic state — the values a future
// operation could observe — is appended to a running configuration hash,
// under a symmetry-group element c (nil: the identity). Process-indexed
// state reorders by c's slot sources, owned components by its component
// sources, embedded pids are rewritten and declared input values hash as
// role tokens. Operation counters (OpCounts) are statistics, not state, and
// are never appended. Each object leads with a distinct tag byte and
// length-prefixes its components, whatever c is, so concatenated
// fingerprints stay unambiguous and each stream is injective in the renamed
// configuration.

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
// identity. Types that do not implement it fall back to a reflected
// rendering (see AppendValue), which is slower and must not contain pointers
// or maps.
type ValueFingerprinter interface {
	AppendValueFingerprint(h *maphash.Hash, c *sched.Canon)
}

// AppendValue appends one component value to the fingerprint under c (nil:
// the identity). A scalar that c declares an input value hashes as its
// renamed role token. Built-in scalar and slice shapes are dispatched
// directly; composite protocol values implement ValueFingerprinter; anything
// else takes the %#v fallback, which is deterministic only for pointer-free,
// map-free values.
func AppendValue(h *maphash.Hash, v Value, c *sched.Canon) {
	if c != nil { // the plain fingerprint skips the type switch
		switch v.(type) {
		case bool, int, int64, float64, string:
			// Input values are scalars. Composites are never looked up:
			// they may be unhashable.
			if role, ok := c.Role(v); ok {
				h.WriteByte(0x0e)
				maphash.WriteComparable(h, role)
				return
			}
		}
	}
	switch x := v.(type) {
	case nil:
		h.WriteByte(0x00)
	case ValueFingerprinter:
		h.WriteByte(0x01)
		x.AppendValueFingerprint(h, c)
	case bool:
		h.WriteByte(0x02)
		maphash.WriteComparable(h, x)
	case int:
		h.WriteByte(0x03)
		maphash.WriteComparable(h, x)
	case int64:
		h.WriteByte(0x04)
		maphash.WriteComparable(h, x)
	case float64:
		h.WriteByte(0x05)
		maphash.WriteComparable(h, x)
	case string:
		h.WriteByte(0x06)
		maphash.WriteComparable(h, len(x))
		h.WriteString(x)
	case []Value:
		h.WriteByte(0x07)
		maphash.WriteComparable(h, len(x))
		for _, e := range x {
			AppendValue(h, e, c)
		}
	case []float64:
		h.WriteByte(0x08)
		maphash.WriteComparable(h, len(x))
		for _, e := range x {
			maphash.WriteComparable(h, e)
		}
	case []int:
		h.WriteByte(0x09)
		maphash.WriteComparable(h, len(x))
		for _, e := range x {
			maphash.WriteComparable(h, e)
		}
	default:
		h.WriteByte(0x0f)
		fmt.Fprintf(h, "%T%#v", v, v)
	}
}

// AppendFingerprint implements sched.Fingerprinter.
func (r *Register) AppendFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(fpRegister)
	AppendValue(h, r.v, c)
}

// AppendFingerprint implements sched.Fingerprinter. The components of a
// single-writer snapshot are process-indexed, so they reorder with the
// process slots.
func (s *SWSnapshot) AppendFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(fpSWSnapshot)
	maphash.WriteComparable(h, len(s.comps))
	for j := range s.comps {
		AppendValue(h, s.comps[c.SlotSrc(j)], c)
	}
}

// AppendFingerprint implements sched.Fingerprinter. Multi-writer components
// are shared, but a class member may own some of them (address them by its
// identity); those are co-permuted.
func (s *MWSnapshot) AppendFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(fpMWSnapshot)
	maphash.WriteComparable(h, len(s.comps))
	for j := range s.comps {
		AppendValue(h, s.comps[c.CompSrc(j)], c)
	}
}

// AppendFingerprint implements sched.Fingerprinter.
func (s *MaxSnapshot) AppendFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(fpMaxSnapshot)
	maphash.WriteComparable(h, len(s.comps))
	for j := range s.comps {
		AppendValue(h, s.comps[c.CompSrc(j)], c)
	}
}

// AppendFingerprint implements sched.Fingerprinter (a fetch-and-increment
// counter has no process identity in its state).
func (f *FetchInc) AppendFingerprint(h *maphash.Hash, _ *sched.Canon) {
	h.WriteByte(fpFetchInc)
	maphash.WriteComparable(h, f.v)
}

// AppendFingerprint implements sched.Fingerprinter: the register-built
// snapshot's state is the state of its underlying registers, including the
// per-writer sequence numbers and embedded views of the Afek et al.
// construction (they steer future scans, so they are semantic state). The
// registers are one per writer, so they reorder with the process slots;
// their swRec contents canonicalize recursively.
func (s *RegSWSnapshot) AppendFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(fpRegSW)
	maphash.WriteComparable(h, len(s.regs))
	for j := range s.regs {
		s.regs[c.SlotSrc(j)].AppendFingerprint(h, c)
	}
}

// AppendFingerprint implements sched.Fingerprinter: the registers are shared
// components (co-permuted when owned), while the private sequence counters
// are process-indexed and reorder with the slots.
func (s *RegMWSnapshot) AppendFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(fpRegMW)
	maphash.WriteComparable(h, len(s.regs))
	for j := range s.regs {
		s.regs[c.CompSrc(j)].AppendFingerprint(h, c)
	}
	for j := range s.seq {
		maphash.WriteComparable(h, s.seq[c.SlotSrc(j)])
	}
}

// AppendValueFingerprint implements ValueFingerprinter for the single-writer
// register record. The embedded view is one entry per writer register, so
// it reorders with the process slots.
func (r swRec) AppendValueFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(0x20)
	maphash.WriteComparable(h, r.Seq)
	AppendValue(h, r.Val, c)
	h.WriteByte(0x07)
	maphash.WriteComparable(h, len(r.View))
	for j := range r.View {
		AppendValue(h, r.View[c.SlotSrc(j)], c)
	}
}

// AppendValueFingerprint implements ValueFingerprinter for the multi-writer
// register record. Writer is a raw pid and is rewritten; the embedded view
// is one entry per shared component and reorders with owned components.
func (r mwRec) AppendValueFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(0x21)
	maphash.WriteComparable(h, c.Pid(r.Writer))
	maphash.WriteComparable(h, r.Seq)
	AppendValue(h, r.Val, c)
	h.WriteByte(0x07)
	maphash.WriteComparable(h, len(r.View))
	for j := range r.View {
		AppendValue(h, r.View[c.CompSrc(j)], c)
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
