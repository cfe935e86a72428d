package algorithms

import (
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
func (p *FirstValue) AppendFingerprint(fp *sched.FP, c *sched.Canon) {
	fp.Byte(0x40)
	fp.Bool(p.wrote)
	fp.Bool(p.done)
	fp.Bool(p.poisedUpdate)
	shmem.AppendValue(fp, p.out, c)
}

// AppendFingerprint implements sched.Fingerprinter.
func (p *Singleton) AppendFingerprint(fp *sched.FP, _ *sched.Canon) {
	fp.Byte(0x41)
	fp.Bool(p.done)
}

// AppendFingerprint implements sched.Fingerprinter.
func (p *Paxos) AppendFingerprint(fp *sched.FP, c *sched.Canon) {
	fp.Byte(0x42)
	fp.Int(p.r)
	fp.Int(int(p.phase))
	shmem.AppendValue(fp, p.val, c)
	p.myReg.AppendValueFingerprint(fp, c)
	shmem.AppendValue(fp, p.out, c)
}

// AppendValueFingerprint implements shmem.ValueFingerprinter.
func (r PaxosReg) AppendValueFingerprint(fp *sched.FP, c *sched.Canon) {
	fp.Byte(0x43)
	fp.Int(r.LRE)
	fp.Int(r.LRWW)
	shmem.AppendValue(fp, r.Val, c)
}

// AppendFingerprint implements sched.Fingerprinter.
func (p *AA2) AppendFingerprint(fp *sched.FP, _ *sched.Canon) {
	fp.Byte(0x44)
	fp.Int(p.r)
	fp.Float64(p.v)
	fp.Int(len(p.hist))
	for _, v := range p.hist {
		fp.Float64(v)
	}
	fp.Bool(p.poisedUpdate)
	fp.Bool(p.started)
	fp.Bool(p.done)
}

// AppendFingerprint implements sched.Fingerprinter.
func (p *AAN) AppendFingerprint(fp *sched.FP, _ *sched.Canon) {
	fp.Byte(0x45)
	fp.Int(p.r)
	fp.Float64(p.v)
	fp.Bool(p.started)
	fp.Bool(p.poisedUpdate)
	fp.Bool(p.done)
}

// AppendValueFingerprint implements shmem.ValueFingerprinter.
func (r AANReg) AppendValueFingerprint(fp *sched.FP, _ *sched.Canon) {
	fp.Byte(0x46)
	fp.Int(r.R)
	fp.Float64(r.V)
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
