// Package algorithms implements the obstruction-free protocols the paper's
// experiments measure against: shared-memory Paxos consensus (n components,
// matching the tight lower bound of Corollary 33), k-set agreement with
// n−k+1 components, a lane-partitioned protocol with n−k+x components, a
// 2-process wait-free ε-approximate agreement protocol, and deliberately
// space-starved protocols used by the reduction-falsification experiments.
//
// All protocols are proto.Process state machines that alternate scan and
// update per the paper's Assumption 1.
package algorithms

import (
	"fmt"

	"revisionist/internal/proto"
)

// PaxosReg is the value a Paxos process keeps in its own component:
// the round-based register of the obstruction-free Alpha/consensus
// construction (Guerraoui & Raynal). LRE is the last round entered (phase 1),
// LRWW the last round with a value write (phase 2), Val the value written.
type PaxosReg struct {
	LRE  int
	LRWW int
	Val  proto.Value
}

// String renders the register for traces.
func (r PaxosReg) String() string {
	return fmt.Sprintf("{lre:%d lrww:%d val:%v}", r.LRE, r.LRWW, r.Val)
}

type paxosPhase int

const (
	paxInit   paxosPhase = iota // poised initial scan
	paxWrite1                   // poised update: LRE := r
	paxCheck1                   // poised scan: phase-1 check
	paxWrite2                   // poised update: (r, r, val)
	paxCheck2                   // poised scan: phase-2 check
	paxDone
)

// Paxos is obstruction-free consensus for a group of processes, each owning
// one component of M (single-writer discipline over the multi-writer
// snapshot). A group of g processes uses exactly g components, so n-process
// consensus uses n components — tight by Corollary 33.
//
// Round structure (rounds are unique per process: idx+1, idx+1+g, ...):
//
//	phase 1: write LRE := r to own component; scan; abort if any group
//	         component has LRE > r or LRWW > r; otherwise adopt the value of
//	         the component with the largest LRWW (own input if none).
//	phase 2: write (r, r, val); scan; abort if any group component has
//	         LRE > r or LRWW > r; otherwise decide val.
//
// Safety is the standard Paxos argument with "read all" as the quorum;
// obstruction-freedom holds because a solo process eventually runs a round
// no one intersects.
type Paxos struct {
	idx   int   // position within the group (determines ballots)
	g     int   // group size (ballot spacing)
	comp  int   // own component index in M
	group []int // all component indices of the group (including comp)
	input proto.Value

	r     int // current round (ballot)
	val   proto.Value
	myReg PaxosReg

	phase paxosPhase
	out   proto.Value
}

var _ proto.Process = (*Paxos)(nil)
var _ proto.Restorer = (*Paxos)(nil)

// NewPaxos returns the group member at position idx (0-based) of a Paxos
// group whose members own the components in group (member idx owns
// group[idx]).
func NewPaxos(idx int, group []int, input proto.Value) *Paxos {
	g := make([]int, len(group))
	copy(g, group)
	return &Paxos{
		idx:   idx,
		g:     len(group),
		comp:  group[idx],
		group: g,
		input: input,
		r:     idx + 1,
		phase: paxInit,
	}
}

// NextOp implements proto.Process.
func (p *Paxos) NextOp() proto.Op {
	switch p.phase {
	case paxInit, paxCheck1, paxCheck2:
		return proto.Op{Kind: proto.OpScan}
	case paxWrite1:
		return proto.Op{Kind: proto.OpUpdate, Comp: p.comp, Val: PaxosReg{LRE: p.r, LRWW: p.myReg.LRWW, Val: p.myReg.Val}}
	case paxWrite2:
		return proto.Op{Kind: proto.OpUpdate, Comp: p.comp, Val: PaxosReg{LRE: p.r, LRWW: p.r, Val: p.val}}
	case paxDone:
		return proto.Op{Kind: proto.OpOutput, Val: p.out}
	default:
		panic(fmt.Sprintf("algorithms: paxos in invalid phase %d", p.phase))
	}
}

// ApplyScan implements proto.Process.
func (p *Paxos) ApplyScan(view []proto.Value) {
	switch p.phase {
	case paxInit:
		p.phase = paxWrite1
	case paxCheck1:
		if p.conflict(view, p.r) {
			p.retry()
			return
		}
		// Adopt the value of the largest phase-2 write, or keep the input.
		best := 0
		p.val = p.input
		for _, c := range p.group {
			reg := asPaxosReg(view[c])
			if reg.LRWW > best {
				best = reg.LRWW
				p.val = reg.Val
			}
		}
		p.phase = paxWrite2
	case paxCheck2:
		if p.conflict(view, p.r) {
			p.retry()
			return
		}
		p.out = p.val
		p.phase = paxDone
	default:
		panic(fmt.Sprintf("algorithms: paxos scan applied in phase %d", p.phase))
	}
}

// ApplyUpdate implements proto.Process.
func (p *Paxos) ApplyUpdate() {
	switch p.phase {
	case paxWrite1:
		p.myReg = PaxosReg{LRE: p.r, LRWW: p.myReg.LRWW, Val: p.myReg.Val}
		p.phase = paxCheck1
	case paxWrite2:
		p.myReg = PaxosReg{LRE: p.r, LRWW: p.r, Val: p.val}
		p.phase = paxCheck2
	default:
		panic(fmt.Sprintf("algorithms: paxos update applied in phase %d", p.phase))
	}
}

// Clone implements proto.Process.
func (p *Paxos) Clone() proto.Process {
	q := *p
	q.group = make([]int, len(p.group))
	copy(q.group, p.group)
	return &q
}

// RestoreFrom implements proto.Restorer. The group is never written after
// construction, so the two processes may share it.
func (p *Paxos) RestoreFrom(src proto.Process) { *p = *src.(*Paxos) }

// conflict reports whether any group component has entered or written a round
// beyond r.
func (p *Paxos) conflict(view []proto.Value, r int) bool {
	for _, c := range p.group {
		reg := asPaxosReg(view[c])
		if reg.LRE > r || reg.LRWW > r {
			return true
		}
	}
	return false
}

func (p *Paxos) retry() {
	p.r += p.g
	p.phase = paxWrite1
}

func asPaxosReg(v proto.Value) PaxosReg {
	if v == nil {
		return PaxosReg{}
	}
	return v.(PaxosReg)
}
