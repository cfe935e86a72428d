package augsnap

import (
	"fmt"

	"revisionist/internal/shmem"
)

// This file decomposes the augmented snapshot operations into resumable
// cursors (sched.Cursor): one gated step per Step call. They are the single
// implementation of Algorithms 3 and 4 — AugSnapshot.Scan and
// AugSnapshot.BlockUpdate are loops over them — and they are what lets the
// simulators and stress workloads run as step machines. Each cursor state is
// one H operation: one step on an atomic store; on a cursorStore, hop holds
// it across its register steps, and an update is staged while hop is nil.

// ScanOp is a resumable Scan (Algorithm 3). Each Step performs exactly one
// gated step; once Step returns true the result is available from View.
type ScanOp struct {
	a   *AugSnapshot
	pid int
	hop *shmem.SnapOp // the H operation in progress on a cursorStore

	st       int // 0: first collect; 1: help; 2: second collect + compare
	h, hp    HView
	startSeq int
	hops     int
	view     []Value
}

// StartScan begins a Scan by process pid without performing any H operation.
func (a *AugSnapshot) StartScan(pid int) *ScanOp {
	return &ScanOp{a: a, pid: pid}
}

// Step performs the Scan's next gated step and reports whether the Scan
// completed.
func (s *ScanOp) Step() bool {
	a := s.a
	switch s.st {
	case 0: // first collect
		if s.hp = a.scanH(s.pid, &s.hop); s.hp == nil {
			return false
		}
		s.startSeq = a.log.lastSeq()
		s.hops = 1
		s.st = 1
		return false
	case 1: // help every other process with one update
		if s.hop == nil {
			s.h = s.hp
			recs := a.helpScratch[:0]
			for j := 0; j < a.f; j++ {
				if j != s.pid {
					recs = append(recs, HelpRec{Dst: j, Idx: s.h.numBU(j), H: s.h})
				}
			}
			a.stageHelp(s.pid, recs)
		}
		if !a.updateH(s.pid, &s.hop) {
			return false
		}
		s.hops++
		s.st = 2
		return false
	case 2: // re-collect; done when two consecutive results coincide
		if s.hp = a.scanH(s.pid, &s.hop); s.hp == nil {
			return false
		}
		s.hops++
		if s.h.eq(s.hp) {
			s.view = s.h.viewInto(a.m, a.bestScratch)
			a.log.recordScanOp(s.pid, s.view, s.startSeq, s.hops)
			s.st = 3
			return true
		}
		s.st = 1
		return false
	default:
		panic("augsnap: Step on a completed ScanOp")
	}
}

// View returns the scanned view; it must only be called after Step returned
// true.
func (s *ScanOp) View() []Value {
	if s.st != 3 {
		panic("augsnap: View on an unfinished ScanOp")
	}
	return s.view
}

// BlockUpdateOp is a resumable Block-Update (Algorithm 4). Each Step performs
// exactly one gated step; once Step returns true the outcome is available
// from Result.
type BlockUpdateOp struct {
	a     *AugSnapshot
	pid   int
	comps []int
	vals  []Value
	b     int           // index of this Block-Update; equals #h_i below
	hop   *shmem.SnapOp // the H operation in progress on a cursorStore

	st     int // 0: line 2 scan; 1: line 4 append; 2: line 5 scan; 3: lines 6-7 help; 4: lines 8-10 check; 5: lines 11-16 read
	h, g   HView
	ts     Timestamp
	hSeq   int // log position of the line-2 scan
	rec    *BURecord
	view   []Value
	atomic bool
}

// StartBlockUpdate begins a Block-Update by process pid without performing
// any H operation. It validates the component set.
func (a *AugSnapshot) StartBlockUpdate(pid int, comps []int, vals []Value) *BlockUpdateOp {
	if len(comps) == 0 || len(comps) != len(vals) {
		panic(fmt.Sprintf("augsnap: BlockUpdate with %d components and %d values", len(comps), len(vals)))
	}
	seen := make(map[int]bool, len(comps))
	for _, c := range comps {
		if c < 0 || c >= a.m || seen[c] {
			panic(fmt.Sprintf("augsnap: BlockUpdate components %v invalid for m=%d", comps, a.m))
		}
		seen[c] = true
	}
	return &BlockUpdateOp{a: a, pid: pid, comps: comps, vals: vals, b: a.buCount[pid]}
}

// Step performs the Block-Update's next gated step and reports whether the
// operation completed (atomically or by yielding).
func (u *BlockUpdateOp) Step() bool {
	a := u.a
	switch u.st {
	case 0: // line 2: h <- H.scan()
		if u.h = a.scanH(u.pid, &u.hop); u.h == nil {
			return false
		}
		u.hSeq = a.log.lastSeq()
		u.st = 1
		return false
	case 1: // lines 3-4: generate the timestamp, append the triples
		if u.hop == nil {
			u.ts = a.newTimestamp(u.pid, u.h)
			triples := make([]Triple, len(u.comps))
			for g := range u.comps {
				triples[g] = Triple{Comp: u.comps[g], Val: u.vals[g], TS: u.ts}
			}
			a.stageTriples(u.pid, triples)
		}
		if !a.updateH(u.pid, &u.hop) {
			return false
		}
		a.buCount[u.pid]++
		u.rec = a.log.openBU(u.pid, u.b, u.comps, u.vals, u.ts)
		u.rec.HSeq, u.rec.XSeq = u.hSeq, a.log.lastSeq()
		u.st = 2
		return false
	case 2: // line 5: scan for helping
		if u.g = a.scanH(u.pid, &u.hop); u.g == nil {
			return false
		}
		u.rec.GSeq = a.log.lastSeq()
		u.st = 3
		return false
	case 3: // lines 6-7: help lower-id processes with one update
		if u.hop == nil {
			recs := a.helpScratch[:0]
			for j := 0; j < u.pid; j++ {
				recs = append(recs, HelpRec{Dst: j, Idx: u.g.numBU(j), H: u.g})
			}
			a.stageHelp(u.pid, recs)
		}
		if !a.updateH(u.pid, &u.hop) {
			return false
		}
		u.rec.HelpSeq = a.log.lastSeq()
		u.st = 4
		return false
	case 4: // lines 8-10: yield if a lower-id process appended triples since h
		hp := a.scanH(u.pid, &u.hop)
		if hp == nil {
			return false
		}
		u.rec.CheckSeq = a.log.lastSeq()
		for j := 0; j < u.pid; j++ {
			if hp.numBU(j) > u.h.numBU(j) {
				a.log.closeBUYield(u.rec)
				u.st = 6
				return true
			}
		}
		u.st = 5
		return false
	case 5: // lines 11-16: determine the latest recorded scan, return its view
		r := a.scanH(u.pid, &u.hop)
		if r == nil {
			return false
		}
		u.rec.ReadSeq = a.log.lastSeq()
		last := u.h
		for j := 0; j < a.f; j++ {
			if j == u.pid {
				continue
			}
			rj := lookupHelp(r[j].Help, u.pid, u.b)
			if rj != nil && last.properPrefix(rj) {
				last = rj
			}
		}
		u.view = last.viewInto(a.m, a.bestScratch)
		u.atomic = true
		a.log.closeBUAtomic(u.rec, last, u.view)
		u.st = 6
		return true
	default:
		panic("augsnap: Step on a completed BlockUpdateOp")
	}
}

// Result returns the Block-Update's outcome: (view, true) for an atomic
// Block-Update, (nil, false) for a yield. It must only be called after Step
// returned true.
func (u *BlockUpdateOp) Result() ([]Value, bool) {
	if u.st != 6 {
		panic("augsnap: Result on an unfinished BlockUpdateOp")
	}
	return u.view, u.atomic
}
