package augsnap

import (
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
func appendTimestamp(fp *sched.FP, t Timestamp, c *sched.Canon) {
	fp.Int(len(t))
	for i := range t {
		fp.Int(t[c.SlotSrc(i)])
	}
}

// AppendValueFingerprint implements shmem.ValueFingerprinter: an HComp is
// the value of one component of H, so fingerprinting H's store visits it.
// Triples embed an M-component index (rewritten forward through the
// component permutation) and a per-process vector timestamp; help records
// embed a destination pid and nested HComp views.
func (hc HComp) AppendValueFingerprint(fp *sched.FP, c *sched.Canon) {
	fp.Byte(0x30)
	fp.Int(len(hc.Triples))
	for _, tr := range hc.Triples {
		fp.Int(c.CompDst(tr.Comp))
		shmem.AppendValue(fp, tr.Val, c)
		appendTimestamp(fp, tr.TS, c)
	}
	fp.Int(hc.NumBU)
	fp.Int(len(hc.Help))
	for _, rec := range hc.Help {
		fp.Int(c.Pid(rec.Dst))
		fp.Int(rec.Idx)
		fp.Int(len(rec.H))
		for _, nested := range rec.H {
			nested.AppendValueFingerprint(fp, c)
		}
	}
}

// AppendFingerprint implements sched.Fingerprinter by composing the
// underlying store's fingerprint (both shmem stores implement the contract)
// with the augmented snapshot's own counters, which reorder with the slots.
func (a *AugSnapshot) AppendFingerprint(fp *sched.FP, c *sched.Canon) {
	fp.Byte(0x31)
	fp.Int(a.f)
	fp.Int(a.m)
	for i := range a.buCount {
		fp.Int(a.buCount[c.SlotSrc(i)])
	}
	a.h.(sched.Fingerprinter).AppendFingerprint(fp, c)
}

var (
	_ shmem.ValueFingerprinter = HComp{}
	_ sched.Fingerprinter      = (*AugSnapshot)(nil)
)
