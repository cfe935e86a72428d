package algorithms

import (
	"fmt"
	"math"

	"revisionist/internal/proto"
)

// AA2 is wait-free ε-approximate agreement for two processes with inputs in
// [0, 1], using 2 components (component i is written only by process i).
// It realizes the matching-order upper bound for the 2-process step
// complexity lower bound L = ½·log₃(1/ε) of Hoest–Shavit that Corollary 34
// consumes.
//
// Each process runs R = ⌈log₂(1/ε)⌉ rounds. Component i holds the history
// [v₁, ..., v_r] of process i's round values. In round r a process appends
// v_r to its history (update), then scans: if the other process has reached
// round r it moves to the midpoint of the two round-r values, otherwise it
// keeps v_r. The standard two-process argument shows the round-r distance at
// least halves every round: whichever process scans last sees the other's
// round-r write, so at least one of the two moves to the midpoint and the
// other either moves there too (distance 0) or keeps its value (distance
// halves). After R rounds the values are within 2^(−R) ≤ ε and every value
// is a midpoint of earlier values, hence within [min input, max input].
type AA2 struct {
	id     int // 0 or 1
	rounds int

	r    int // current round, 1-based
	v    float64
	hist []float64

	poisedUpdate bool
	started      bool
	done         bool
}

var _ proto.Process = (*AA2)(nil)
var _ proto.Restorer = (*AA2)(nil)

// NewAA2 returns process id ∈ {0, 1} with the given input and target eps.
func NewAA2(id int, input, eps float64) (*AA2, error) {
	if id != 0 && id != 1 {
		return nil, fmt.Errorf("algorithms: AA2 id must be 0 or 1, got %d", id)
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("algorithms: AA2 eps must be in (0, 1), got %g", eps)
	}
	if input < 0 || input > 1 {
		return nil, fmt.Errorf("algorithms: AA2 input must be in [0, 1], got %g", input)
	}
	return &AA2{
		id:     id,
		rounds: int(math.Ceil(math.Log2(1 / eps))),
		r:      1,
		v:      input,
	}, nil
}

// Rounds returns the number of rounds R the process runs.
func (p *AA2) Rounds() int { return p.rounds }

// NextOp implements proto.Process.
func (p *AA2) NextOp() proto.Op {
	switch {
	case p.done:
		return proto.Op{Kind: proto.OpOutput, Val: p.v}
	case p.poisedUpdate:
		hist := make([]float64, len(p.hist)+1)
		copy(hist, p.hist)
		hist[len(hist)-1] = p.v
		return proto.Op{Kind: proto.OpUpdate, Comp: p.id, Val: hist}
	default:
		return proto.Op{Kind: proto.OpScan}
	}
}

// ApplyScan implements proto.Process.
func (p *AA2) ApplyScan(view []proto.Value) {
	if !p.started {
		// Assumption-1 leading scan; ignored.
		p.started = true
		p.poisedUpdate = true
		return
	}
	other, _ := view[1-p.id].([]float64)
	if len(other) >= p.r {
		p.v = (p.v + other[p.r-1]) / 2
	}
	if p.r >= p.rounds {
		p.done = true
		return
	}
	p.r++
	p.poisedUpdate = true
}

// ApplyUpdate implements proto.Process.
func (p *AA2) ApplyUpdate() {
	p.hist = append(p.hist, p.v)
	p.poisedUpdate = false
}

// Clone implements proto.Process.
func (p *AA2) Clone() proto.Process {
	q := *p
	q.hist = make([]float64, len(p.hist))
	copy(q.hist, p.hist)
	return &q
}

// RestoreFrom implements proto.Restorer: the history is copied into the
// receiver's own slice.
func (p *AA2) RestoreFrom(src proto.Process) {
	q := src.(*AA2)
	hist := append(p.hist[:0], q.hist...)
	*p = *q
	p.hist = hist
}

// NewApproxAgreement2 builds the two-process protocol with its 2 components.
func NewApproxAgreement2(inputs [2]float64, eps float64) ([]proto.Process, int, error) {
	p0, err := NewAA2(0, inputs[0], eps)
	if err != nil {
		return nil, 0, err
	}
	p1, err := NewAA2(1, inputs[1], eps)
	if err != nil {
		return nil, 0, err
	}
	return []proto.Process{p0, p1}, 2, nil
}
