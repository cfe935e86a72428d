package algorithms

import (
	"hash/maphash"

	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// Fingerprints (sched.Fingerprinter) for every protocol process, and value
// fingerprints (shmem.ValueFingerprinter) for the composite values they
// store in snapshot components, each appended under a symmetry-group
// element c (nil: the identity). Only mutable state is appended:
// construction parameters (ids, groups, inputs, round counts) are identical
// across the fresh instances a trace.Factory builds, so they cannot
// distinguish two configurations of the same exploration. A held value that
// may be a declared input goes through shmem.AppendValue, which rewrites it
// to its renamed role token; processes whose state carries neither pids nor
// input values (Singleton, AA2, AAN, AANReg) ignore c, and their digest is
// already orbit-invariant under slot reordering.

// AppendFingerprint implements sched.Fingerprinter.
func (p *FirstValue) AppendFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(0x40)
	maphash.WriteComparable(h, p.wrote)
	maphash.WriteComparable(h, p.done)
	maphash.WriteComparable(h, p.poisedUpdate)
	shmem.AppendValue(h, p.out, c)
}

// AppendFingerprint implements sched.Fingerprinter.
func (p *Singleton) AppendFingerprint(h *maphash.Hash, _ *sched.Canon) {
	h.WriteByte(0x41)
	maphash.WriteComparable(h, p.done)
}

// AppendFingerprint implements sched.Fingerprinter.
func (p *Paxos) AppendFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(0x42)
	maphash.WriteComparable(h, p.r)
	maphash.WriteComparable(h, int(p.phase))
	shmem.AppendValue(h, p.val, c)
	p.myReg.AppendValueFingerprint(h, c)
	shmem.AppendValue(h, p.out, c)
}

// AppendValueFingerprint implements shmem.ValueFingerprinter.
func (r PaxosReg) AppendValueFingerprint(h *maphash.Hash, c *sched.Canon) {
	h.WriteByte(0x43)
	maphash.WriteComparable(h, r.LRE)
	maphash.WriteComparable(h, r.LRWW)
	shmem.AppendValue(h, r.Val, c)
}

// AppendFingerprint implements sched.Fingerprinter.
func (p *AA2) AppendFingerprint(h *maphash.Hash, _ *sched.Canon) {
	h.WriteByte(0x44)
	maphash.WriteComparable(h, p.r)
	maphash.WriteComparable(h, p.v)
	maphash.WriteComparable(h, len(p.hist))
	for _, v := range p.hist {
		maphash.WriteComparable(h, v)
	}
	maphash.WriteComparable(h, p.poisedUpdate)
	maphash.WriteComparable(h, p.started)
	maphash.WriteComparable(h, p.done)
}

// AppendFingerprint implements sched.Fingerprinter.
func (p *AAN) AppendFingerprint(h *maphash.Hash, _ *sched.Canon) {
	h.WriteByte(0x45)
	maphash.WriteComparable(h, p.r)
	maphash.WriteComparable(h, p.v)
	maphash.WriteComparable(h, p.started)
	maphash.WriteComparable(h, p.poisedUpdate)
	maphash.WriteComparable(h, p.done)
}

// AppendValueFingerprint implements shmem.ValueFingerprinter.
func (r AANReg) AppendValueFingerprint(h *maphash.Hash, _ *sched.Canon) {
	h.WriteByte(0x46)
	maphash.WriteComparable(h, r.R)
	maphash.WriteComparable(h, r.V)
}

var (
	_ sched.Fingerprinter      = (*FirstValue)(nil)
	_ sched.Fingerprinter      = (*Singleton)(nil)
	_ sched.Fingerprinter      = (*Paxos)(nil)
	_ sched.Fingerprinter      = (*AA2)(nil)
	_ sched.Fingerprinter      = (*AAN)(nil)
	_ shmem.ValueFingerprinter = PaxosReg{}
	_ shmem.ValueFingerprinter = AANReg{}
)
