package algorithms

import (
	"fmt"

	"revisionist/internal/proto"
)

// FirstValue is the one-component protocol "write my input if the component
// is empty, then output whatever the component holds". It solves the trivial
// colorless task (spec.Trivial) wait-free with m = 1, and is used as the
// deliberately space-starved "consensus" and "approximate agreement"
// protocol of the reduction-falsification experiments (E6): it is
// obstruction-free (indeed wait-free) and valid, but under contention two
// processes can output different inputs.
type FirstValue struct {
	comp  int
	input proto.Value

	wrote bool
	out   proto.Value
	done  bool
	// poisedUpdate is true when the next op is the input-publishing update.
	poisedUpdate bool
}

var _ proto.Process = (*FirstValue)(nil)
var _ proto.Restorer = (*FirstValue)(nil)

// NewFirstValue returns a process using component comp of M.
func NewFirstValue(comp int, input proto.Value) *FirstValue {
	return &FirstValue{comp: comp, input: input}
}

// NextOp implements proto.Process.
func (p *FirstValue) NextOp() proto.Op {
	switch {
	case p.done:
		return proto.Op{Kind: proto.OpOutput, Val: p.out}
	case p.poisedUpdate:
		return proto.Op{Kind: proto.OpUpdate, Comp: p.comp, Val: p.input}
	default:
		return proto.Op{Kind: proto.OpScan}
	}
}

// ApplyScan implements proto.Process.
func (p *FirstValue) ApplyScan(view []proto.Value) {
	if v := view[p.comp]; v != nil {
		p.out = v
		p.done = true
		return
	}
	if p.wrote {
		// Our own write is visible to us in any later scan, so this branch is
		// unreachable under atomic snapshots; guard anyway.
		p.out = p.input
		p.done = true
		return
	}
	p.poisedUpdate = true
}

// ApplyUpdate implements proto.Process.
func (p *FirstValue) ApplyUpdate() {
	p.wrote = true
	p.poisedUpdate = false
}

// Clone implements proto.Process.
func (p *FirstValue) Clone() proto.Process {
	q := *p
	return &q
}

// RestoreFrom implements proto.Restorer.
func (p *FirstValue) RestoreFrom(src proto.Process) { *p = *src.(*FirstValue) }

// Singleton outputs its own input after one scan, using no components. It is
// the building block of the k-set agreement compositions: a singleton
// contributes at most its own input to the output set.
type Singleton struct {
	input proto.Value
	done  bool
}

var _ proto.Process = (*Singleton)(nil)
var _ proto.Restorer = (*Singleton)(nil)

// NewSingleton returns a process that outputs input.
func NewSingleton(input proto.Value) *Singleton {
	return &Singleton{input: input}
}

// NextOp implements proto.Process.
func (p *Singleton) NextOp() proto.Op {
	if p.done {
		return proto.Op{Kind: proto.OpOutput, Val: p.input}
	}
	return proto.Op{Kind: proto.OpScan}
}

// ApplyScan implements proto.Process.
func (p *Singleton) ApplyScan([]proto.Value) { p.done = true }

// ApplyUpdate implements proto.Process.
func (p *Singleton) ApplyUpdate() {
	panic("algorithms: singleton never updates")
}

// Clone implements proto.Process.
func (p *Singleton) Clone() proto.Process {
	q := *p
	return &q
}

// RestoreFrom implements proto.Restorer.
func (p *Singleton) RestoreFrom(src proto.Process) { *p = *src.(*Singleton) }

// NewKSetAgreement builds the obstruction-free k-set agreement protocol with
// n−k+1 components (the x = 1 upper bound of Corollary 33, cf. [16]):
// processes 0..k−2 are singletons (each adds at most its own input to the
// output set), and processes k−1..n−1 run one Paxos consensus group over
// components 0..n−k (adding at most one more value). At most k distinct
// outputs, every output an input; obstruction-free because both building
// blocks are.
//
// inputs must have length n; 1 <= k < n.
func NewKSetAgreement(n, k int, inputs []proto.Value) ([]proto.Process, int, error) {
	if err := checkKSetParams(n, k, len(inputs)); err != nil {
		return nil, 0, err
	}
	m := n - k + 1
	procs := make([]proto.Process, n)
	group := make([]int, m)
	for i := range group {
		group[i] = i
	}
	for i := 0; i < k-1; i++ {
		procs[i] = NewSingleton(inputs[i])
	}
	for i := k - 1; i < n; i++ {
		procs[i] = NewPaxos(i-(k-1), group, inputs[i])
	}
	return procs, m, nil
}

// NewLaneKSetAgreement builds the lane-partitioned protocol with n−k+x
// components: k−x singletons plus x Paxos lanes over disjoint component
// ranges partitioning the remaining n−k+x processes. It is always k-set
// safe (at most k−x singleton values plus at most one value per lane) and
// obstruction-free; it is additionally live for any set of at most x
// concurrent processes that occupy distinct lanes. The fully general
// x-obstruction-free protocol of Bouzid–Raynal–Sutra is out of scope (see
// DESIGN.md §2); this preserves the space accounting n−k+x that experiments
// T1/E8 measure.
//
// inputs must have length n; 1 <= x <= k < n.
func NewLaneKSetAgreement(n, k, x int, inputs []proto.Value) ([]proto.Process, int, error) {
	if err := checkKSetParams(n, k, len(inputs)); err != nil {
		return nil, 0, err
	}
	if x < 1 || x > k {
		return nil, 0, fmt.Errorf("algorithms: x = %d out of range [1, k=%d]", x, k)
	}
	m := n - k + x
	big := n - (k - x) // processes in lanes
	procs := make([]proto.Process, n)
	for i := 0; i < k-x; i++ {
		procs[i] = NewSingleton(inputs[i])
	}
	// Split the big group into x contiguous lanes as evenly as possible.
	base := k - x  // first lane process id
	cbase := 0     // first component of the current lane
	rem := big % x // lanes getting one extra member
	for lane := 0; lane < x; lane++ {
		size := big / x
		if lane < rem {
			size++
		}
		if size == 0 {
			continue
		}
		group := make([]int, size)
		for i := range group {
			group[i] = cbase + i
		}
		for i := 0; i < size; i++ {
			procs[base+i] = NewPaxos(i, group, inputs[base+i])
		}
		base += size
		cbase += size
	}
	return procs, m, nil
}

func checkKSetParams(n, k, ninputs int) error {
	if n < 2 || k < 1 || k >= n {
		return fmt.Errorf("algorithms: invalid k-set parameters n=%d k=%d (need 1 <= k < n)", n, k)
	}
	if ninputs != n {
		return fmt.Errorf("algorithms: got %d inputs for n=%d processes", ninputs, n)
	}
	return nil
}

// NewConsensus builds n-process obstruction-free consensus with n components
// (one Paxos group over everything) — tight by Corollary 33.
func NewConsensus(n int, inputs []proto.Value) ([]proto.Process, int, error) {
	if n < 1 {
		return nil, 0, fmt.Errorf("algorithms: invalid n=%d", n)
	}
	if len(inputs) != n {
		return nil, 0, fmt.Errorf("algorithms: got %d inputs for n=%d processes", len(inputs), n)
	}
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	procs := make([]proto.Process, n)
	for i := range procs {
		procs[i] = NewPaxos(i, group, inputs[i])
	}
	return procs, n, nil
}
