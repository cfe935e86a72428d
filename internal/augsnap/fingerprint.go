package augsnap

import (
	"hash/maphash"

	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// Fingerprints for the augmented snapshot (sched.Fingerprinter and
// shmem.ValueFingerprinter): the object's semantic state is the published
// state of H plus the per-process Block-Update counters. The operation log
// is offline-checking bookkeeping, not state, and is never fingerprinted —
// which also means systems whose checkers read the log (trace.Check) must
// not be pruned on these fingerprints; they exist for configuration
// comparison (the sched equivalence tests) and for protocol-level systems
// whose checkers are functions of the reachable state.

// appendTimestamp appends a vector timestamp.
func appendTimestamp(h *maphash.Hash, t Timestamp) {
	maphash.WriteComparable(h, len(t))
	for _, v := range t {
		maphash.WriteComparable(h, v)
	}
}

// AppendValueFingerprint implements shmem.ValueFingerprinter: an HComp is
// the value of one component of H, so fingerprinting H's store visits it.
func (c HComp) AppendValueFingerprint(h *maphash.Hash) {
	h.WriteByte(0x30)
	maphash.WriteComparable(h, len(c.Triples))
	for _, tr := range c.Triples {
		maphash.WriteComparable(h, tr.Comp)
		shmem.AppendValue(h, tr.Val)
		appendTimestamp(h, tr.TS)
	}
	maphash.WriteComparable(h, c.NumBU)
	maphash.WriteComparable(h, len(c.Help))
	for _, rec := range c.Help {
		maphash.WriteComparable(h, rec.Dst)
		maphash.WriteComparable(h, rec.Idx)
		maphash.WriteComparable(h, len(rec.H))
		for _, hc := range rec.H {
			hc.AppendValueFingerprint(h)
		}
	}
}

// AppendFingerprint implements sched.Fingerprinter by composing the
// underlying store's fingerprint (both shmem stores implement the contract)
// with the augmented snapshot's own counters.
func (a *AugSnapshot) AppendFingerprint(h *maphash.Hash) {
	h.WriteByte(0x31)
	maphash.WriteComparable(h, a.f)
	maphash.WriteComparable(h, a.m)
	for _, c := range a.buCount {
		maphash.WriteComparable(h, c)
	}
	a.h.(sched.Fingerprinter).AppendFingerprint(h)
}

// appendTimestampCanon appends a vector timestamp with its per-process
// entries reordered by the group element's slot sources.
func appendTimestampCanon(h *maphash.Hash, t Timestamp, c *sched.Canon) {
	maphash.WriteComparable(h, len(t))
	for i := range t {
		maphash.WriteComparable(h, t[c.SlotSrc(i)])
	}
}

// AppendCanonicalValueFingerprint implements
// shmem.CanonicalValueFingerprinter: triples embed an M-component index
// (rewritten forward through the component permutation) and a per-process
// vector timestamp; help records embed a destination pid and nested HComp
// views.
func (hc HComp) AppendCanonicalValueFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(0x30)
	maphash.WriteComparable(h, len(hc.Triples))
	for _, tr := range hc.Triples {
		maphash.WriteComparable(h, c.CompDst(tr.Comp))
		shmem.AppendValueCanon(h, tr.Val, c)
		appendTimestampCanon(h, tr.TS, c)
	}
	maphash.WriteComparable(h, hc.NumBU)
	maphash.WriteComparable(h, len(hc.Help))
	for _, rec := range hc.Help {
		maphash.WriteComparable(h, c.Pid(rec.Dst))
		maphash.WriteComparable(h, rec.Idx)
		maphash.WriteComparable(h, len(rec.H))
		for _, nested := range rec.H {
			nested.AppendCanonicalValueFingerprint(h, c)
		}
	}
}

// AppendCanonicalFingerprint implements sched.CanonicalFingerprinter: the
// per-process Block-Update counters reorder with the slots, and the
// underlying store canonicalizes recursively (both shmem stores implement
// the canonical contract).
func (a *AugSnapshot) AppendCanonicalFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(0x31)
	maphash.WriteComparable(h, a.f)
	maphash.WriteComparable(h, a.m)
	for i := range a.buCount {
		maphash.WriteComparable(h, a.buCount[c.SlotSrc(i)])
	}
	if f, ok := a.h.(sched.CanonicalFingerprinter); ok {
		f.AppendCanonicalFingerprint(h, c)
		return
	}
	a.h.(sched.Fingerprinter).AppendFingerprint(h)
}

var (
	_ shmem.ValueFingerprinter = HComp{}
	_ sched.Fingerprinter      = (*AugSnapshot)(nil)

	_ shmem.CanonicalValueFingerprinter = HComp{}
	_ sched.CanonicalFingerprinter      = (*AugSnapshot)(nil)
)
