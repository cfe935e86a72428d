package augsnap

import (
	"hash/maphash"

	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// Fingerprints for the augmented snapshot (sched.Fingerprinter and
// shmem.ValueFingerprinter), appended under a symmetry-group element c (nil:
// the identity): the object's semantic state is the published state of H
// plus the per-process Block-Update counters. The operation log is
// offline-checking bookkeeping, not state, and is never fingerprinted —
// which also means systems whose checkers read the log (trace.Check) must
// not be pruned on these fingerprints; they exist for configuration
// comparison (the sched equivalence tests) and for protocol-level systems
// whose checkers are functions of the reachable state.

// appendTimestamp appends a vector timestamp with its per-process entries
// reordered by c's slot sources.
func appendTimestamp(h *maphash.Hash, t Timestamp, c *sched.Canon) {
	maphash.WriteComparable(h, len(t))
	for i := range t {
		maphash.WriteComparable(h, t[c.SlotSrc(i)])
	}
}

// AppendValueFingerprint implements shmem.ValueFingerprinter: an HComp is
// the value of one component of H, so fingerprinting H's store visits it.
// Triples embed an M-component index (rewritten forward through the
// component permutation) and a per-process vector timestamp; help records
// embed a destination pid and nested HComp views.
func (hc HComp) AppendValueFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(0x30)
	maphash.WriteComparable(h, len(hc.Triples))
	for _, tr := range hc.Triples {
		maphash.WriteComparable(h, c.CompDst(tr.Comp))
		shmem.AppendValue(h, tr.Val, c)
		appendTimestamp(h, tr.TS, c)
	}
	maphash.WriteComparable(h, hc.NumBU)
	maphash.WriteComparable(h, len(hc.Help))
	for _, rec := range hc.Help {
		maphash.WriteComparable(h, c.Pid(rec.Dst))
		maphash.WriteComparable(h, rec.Idx)
		maphash.WriteComparable(h, len(rec.H))
		for _, nested := range rec.H {
			nested.AppendValueFingerprint(h, c)
		}
	}
}

// AppendFingerprint implements sched.Fingerprinter by composing the
// underlying store's fingerprint (both shmem stores implement the contract)
// with the augmented snapshot's own counters, which reorder with the slots.
func (a *AugSnapshot) AppendFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(0x31)
	maphash.WriteComparable(h, a.f)
	maphash.WriteComparable(h, a.m)
	for i := range a.buCount {
		maphash.WriteComparable(h, a.buCount[c.SlotSrc(i)])
	}
	a.h.(sched.Fingerprinter).AppendFingerprint(h, c)
}

var (
	_ shmem.ValueFingerprinter = HComp{}
	_ sched.Fingerprinter      = (*AugSnapshot)(nil)
)
