package algorithms

import (
	"fmt"
	"math"

	"revisionist/internal/proto"
)

// AAN is wait-free ε-approximate agreement for n processes with inputs in
// [0, 1], using n single-writer components — the shape of the n-register
// upper bound of Attiya, Lynch and Shavit [9] that Corollary 34 is measured
// against.
//
// Component i holds (round, value) for process i. A process at round r
// writes (r, v), scans, and:
//
//   - if some component shows a round R > r, it adopts (R, value of the
//     lowest-indexed component at round R) — a jump: stragglers copy instead
//     of computing;
//   - otherwise it moves to round r+1 with the midpoint of the least and
//     greatest round-r values it saw.
//
// Correctness sketch (mechanically validated by the tests): the round-r
// scans are totally ordered, so the sets of round-r values they return are
// nested; midpoints of nested intervals differ by at most half the outer
// spread, and jump-copies duplicate existing round values, so the spread of
// round-(r+1) values is at most half the spread of round-r values. After
// T = ⌈log₂(1/ε)⌉ completed rounds all outputs are within ε, and every value
// is a midpoint or copy of earlier values, hence within [min input, max
// input]. Each process performs at most one write and one scan per round it
// passes through and jumps only forward, so it terminates within 2T+1
// operations regardless of scheduling: wait-free.
type AAN struct {
	id     int
	n      int
	rounds int

	r int
	v float64

	started      bool
	poisedUpdate bool
	done         bool
}

// AANReg is the (round, value) pair process i keeps in component i.
type AANReg struct {
	R int
	V float64
}

var _ proto.Process = (*AAN)(nil)
var _ proto.Restorer = (*AAN)(nil)

// NewAAN returns process id of an n-process instance with the given input
// and target eps.
func NewAAN(id, n int, input, eps float64) (*AAN, error) {
	if id < 0 || id >= n {
		return nil, fmt.Errorf("algorithms: AAN id %d out of range [0, %d)", id, n)
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("algorithms: AAN eps must be in (0, 1), got %g", eps)
	}
	if input < 0 || input > 1 {
		return nil, fmt.Errorf("algorithms: AAN input must be in [0, 1], got %g", input)
	}
	return &AAN{
		id:     id,
		n:      n,
		rounds: int(math.Ceil(math.Log2(1 / eps))),
		r:      1,
		v:      input,
	}, nil
}

// NextOp implements proto.Process.
func (p *AAN) NextOp() proto.Op {
	switch {
	case p.done:
		return proto.Op{Kind: proto.OpOutput, Val: p.v}
	case p.poisedUpdate:
		return proto.Op{Kind: proto.OpUpdate, Comp: p.id, Val: AANReg{R: p.r, V: p.v}}
	default:
		return proto.Op{Kind: proto.OpScan}
	}
}

// ApplyScan implements proto.Process.
func (p *AAN) ApplyScan(view []proto.Value) {
	if !p.started {
		p.started = true
		p.poisedUpdate = true // publish (1, input) first
		return
	}
	// Find the maximum round present and the round-r interval.
	maxR, maxRVal := 0, 0.0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, raw := range view {
		reg, ok := raw.(AANReg)
		if !ok {
			continue
		}
		if reg.R > maxR {
			maxR = reg.R
			maxRVal = reg.V // lowest index wins: components scanned in order
		}
		if reg.R == p.r {
			lo = math.Min(lo, reg.V)
			hi = math.Max(hi, reg.V)
		}
	}
	if maxR > p.r {
		// Jump: adopt the front-runner's round and value, then publish it.
		p.r, p.v = maxR, maxRVal
	} else {
		// Own write is visible, so lo/hi are finite.
		p.v = (lo + hi) / 2
		p.r++
	}
	if p.r > p.rounds {
		p.done = true
		return
	}
	p.poisedUpdate = true
}

// ApplyUpdate implements proto.Process.
func (p *AAN) ApplyUpdate() { p.poisedUpdate = false }

// Clone implements proto.Process.
func (p *AAN) Clone() proto.Process {
	q := *p
	return &q
}

// RestoreFrom implements proto.Restorer.
func (p *AAN) RestoreFrom(src proto.Process) { *p = *src.(*AAN) }

// NewApproxAgreementN builds the n-process protocol with its n components.
func NewApproxAgreementN(inputs []float64, eps float64) ([]proto.Process, int, error) {
	n := len(inputs)
	if n < 1 {
		return nil, 0, fmt.Errorf("algorithms: AAN needs at least one process")
	}
	procs := make([]proto.Process, n)
	for i := range procs {
		p, err := NewAAN(i, n, inputs[i], eps)
		if err != nil {
			return nil, 0, err
		}
		procs[i] = p
	}
	return procs, n, nil
}
