// Package nst implements §5 of the paper: the conversion of nondeterministic
// solo-terminating protocols into deterministic obstruction-free protocols
// over the same m-component object (Theorem 35), and the ABA-free register
// lifting of Corollary 36.
//
// A nondeterministic protocol specifies, per process, a state machine
// (S, ν, δ, I, F): ν gives the next operation in a non-final state, and δ
// maps (state, response) to a non-empty set of successor states. The paper's
// construction determinizes δ by always stepping onto a *shortest p-solo
// path*: the framework tracks E_p — what the process expects the next scan
// to return if it runs alone — and searches the solo execution tree (whose
// responses are fully determined by E_p) for the nearest final state. The
// resulting protocol Π′ is deterministic, every execution of Π′ is an
// execution of Π, and Π′ is obstruction-free because the distance to a final
// state strictly decreases along solo runs.
package nst

import (
	"fmt"

	"revisionist/internal/proto"
)

// Value is a protocol value.
type Value = proto.Value

// State is one state of a process's nondeterministic machine. States must be
// immutable; Key must uniquely identify the state (it is used for
// memoization and cycle detection).
type State interface {
	Key() string
}

// Machine is the nondeterministic state machine M_p of one process (§5.1),
// operating on an m-component snapshot object (scan + per-component update;
// §5.2 treats general m-component objects, of which this is the instance the
// rest of the repository uses).
type Machine interface {
	// Initial returns the initial state for the given input.
	Initial(input Value) State
	// Final returns the output value if s is final.
	Final(s State) (Value, bool)
	// Nu returns the operation the process performs in non-final state s:
	// proto.OpScan or proto.OpUpdate with component and value.
	Nu(s State) proto.Op
	// Delta returns the non-empty, deterministically ordered set of successor
	// states after performing Nu(s) and receiving the response (the view for
	// a scan, nil for an update). The first element plays the role of the
	// paper's "first state" in its total order on S_p.
	Delta(s State, resp []Value) []State
}

// node is a machine state together with E_p, the expected contents of the
// object (part of the process state in the paper's construction).
type node struct {
	s  State
	ep []Value
}

func (n node) key() string {
	return fmt.Sprintf("%s|%v", n.s.Key(), n.ep)
}

// Semantics describes how an operation on one component transforms its
// value, so E_p can be maintained for any m-component object (§5.2). The
// zero value is nil, which the converter treats as WriteSemantics (a
// snapshot object); MaxSemantics models m-component max registers.
type Semantics interface {
	Apply(cur Value, op proto.Op) Value
}

// WriteSemantics is the snapshot object: an update overwrites the component.
type WriteSemantics struct{}

// Apply implements Semantics.
func (WriteSemantics) Apply(_ Value, op proto.Op) Value { return op.Val }

// MaxSemantics is the max-register object: an update raises the component to
// the written value if larger.
type MaxSemantics struct {
	Less func(a, b Value) bool
}

// Apply implements Semantics.
func (m MaxSemantics) Apply(cur Value, op proto.Op) Value {
	if cur == nil || m.Less(cur, op.Val) {
		return op.Val
	}
	return cur
}

// Converter determinizes one process's machine (the map δ′ of Theorem 35).
// It is deterministic and memoized; a single Converter may be shared by
// clones of the same process.
type Converter struct {
	M Machine
	// Components is m, the number of object components.
	Components int
	// Sem is the component-operation semantics; nil means WriteSemantics.
	Sem Semantics
	// MaxSearch bounds the breadth-first search for a shortest solo path;
	// nondeterministic solo termination guarantees one exists from every
	// reachable configuration, so hitting the bound reports a protocol bug.
	MaxSearch int

	memo map[string]searchResult
}

type searchResult struct {
	dist int // length of a shortest solo path to a final state, -1 if none found
	next string
}

// NewConverter returns a converter for machine m over a snapshot object with
// the given number of components.
func NewConverter(m Machine, components int) *Converter {
	return NewConverterFor(m, components, WriteSemantics{})
}

// NewConverterFor is NewConverter with explicit component-operation
// semantics, e.g. MaxSemantics for an m-component max register.
func NewConverterFor(m Machine, components int, sem Semantics) *Converter {
	return &Converter{M: m, Components: components, Sem: sem, MaxSearch: 1 << 16, memo: make(map[string]searchResult)}
}

func (c *Converter) apply(cur Value, op proto.Op) Value {
	if c.Sem == nil {
		return op.Val
	}
	return c.Sem.Apply(cur, op)
}

// soloSuccessors returns the successors of a node along solo executions:
// the response of Nu is computed from E_p (a scan returns E_p; an update
// returns nil and sets E_p[j] = v).
func (c *Converter) soloSuccessors(n node) ([]node, error) {
	op := c.M.Nu(n.s)
	var resp []Value
	ep := n.ep
	switch op.Kind {
	case proto.OpScan:
		resp = append([]Value(nil), n.ep...)
	case proto.OpUpdate:
		if op.Comp < 0 || op.Comp >= c.Components {
			return nil, fmt.Errorf("nst: machine updates out-of-range component %d", op.Comp)
		}
		ep = append([]Value(nil), n.ep...)
		ep[op.Comp] = c.apply(ep[op.Comp], op)
	default:
		return nil, fmt.Errorf("nst: Nu returned invalid op kind %v", op.Kind)
	}
	succs := c.M.Delta(n.s, resp)
	if len(succs) == 0 {
		return nil, fmt.Errorf("nst: Delta returned empty successor set for state %q", n.s.Key())
	}
	out := make([]node, len(succs))
	for i, s := range succs {
		nep := ep
		if op.Kind == proto.OpScan {
			nep = resp // E_p updated to the scan result
		}
		out[i] = node{s: s, ep: nep}
	}
	return out, nil
}

// shortestSoloPath runs a BFS from n through solo executions and returns the
// distance to the nearest final state, memoizing every node on the way. It
// returns -1 if no final state is reachable within MaxSearch nodes.
func (c *Converter) shortestSoloPath(n node) (int, error) {
	if r, ok := c.memo[n.key()]; ok {
		return r.dist, nil
	}
	type qent struct {
		n      node
		parent string
		first  string // key of the immediate successor of the root on this path
	}
	root := n.key()
	visited := map[string]bool{root: true}
	queue := []qent{{n: n}}
	depth := map[string]int{root: 0}
	// firstHop[k] records, for each visited node, the root-successor that
	// leads to it on its BFS path (used to set δ′ at the root).
	expanded := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if _, final := c.M.Final(cur.n.s); final {
			c.memo[root] = searchResult{dist: depth[cur.n.key()], next: cur.first}
			return depth[cur.n.key()], nil
		}
		expanded++
		if expanded > c.MaxSearch {
			break
		}
		succs, err := c.soloSuccessors(cur.n)
		if err != nil {
			return -1, err
		}
		for _, s := range succs {
			k := s.key()
			if visited[k] {
				continue
			}
			visited[k] = true
			depth[k] = depth[cur.n.key()] + 1
			first := cur.first
			if cur.n.key() == root {
				first = k
			}
			queue = append(queue, qent{n: s, first: first})
		}
	}
	c.memo[root] = searchResult{dist: -1}
	return -1, nil
}

// nextState implements δ′ (Theorem 35): given the current node and the
// actual response a of ν(s), pick the successor. If the response matches the
// solo-expected response and a solo path to a final state exists, the chosen
// successor is the first one on a shortest such path; otherwise the first
// element of δ(s, a).
func (c *Converter) nextState(n node, resp []Value) (node, error) {
	op := c.M.Nu(n.s)
	// The response observed matches the solo-predicted one iff either the
	// operation is an update (response is always nil), or the scan result
	// equals E_p.
	matches := true
	if op.Kind == proto.OpScan {
		if len(resp) != len(n.ep) {
			matches = false
		} else {
			for j := range resp {
				if resp[j] != n.ep[j] {
					matches = false
					break
				}
			}
		}
	}
	// Compute the successor E_p from the actual response.
	var nep []Value
	switch op.Kind {
	case proto.OpScan:
		nep = append([]Value(nil), resp...)
	case proto.OpUpdate:
		nep = append([]Value(nil), n.ep...)
		nep[op.Comp] = c.apply(nep[op.Comp], op)
	}

	if matches {
		if dist, err := c.shortestSoloPath(n); err != nil {
			return node{}, err
		} else if dist >= 0 {
			r := c.memo[n.key()]
			if r.next == "" {
				// The root itself is final; callers never ask for a
				// transition out of a final state.
				return node{}, fmt.Errorf("nst: transition requested from final state %q", n.s.Key())
			}
			succs, err := c.soloSuccessors(n)
			if err != nil {
				return node{}, err
			}
			for _, s := range succs {
				if s.key() == r.next {
					return s, nil
				}
			}
			return node{}, fmt.Errorf("nst: memoized successor %q not among solo successors", r.next)
		}
	}
	succs := c.M.Delta(n.s, resp)
	if len(succs) == 0 {
		return node{}, fmt.Errorf("nst: Delta returned empty successor set for state %q", n.s.Key())
	}
	return node{s: succs[0], ep: nep}, nil
}

// Process is the deterministic obstruction-free process Π′ derived from a
// nondeterministic machine. It implements proto.Process, so it can run under
// the protocol runner and the revisionist simulation like any deterministic
// protocol.
type Process struct {
	conv *Converter
	cur  node
	out  Value
	done bool
}

var _ proto.Process = (*Process)(nil)
var _ proto.Restorer = (*Process)(nil)

// NewProcess returns the determinized process with the given input. The
// object's components all start as nil, matching the runner's convention.
func NewProcess(conv *Converter, input Value) *Process {
	ep := make([]Value, conv.Components)
	return &Process{conv: conv, cur: node{s: conv.M.Initial(input), ep: ep}}
}

// NextOp implements proto.Process.
func (p *Process) NextOp() proto.Op {
	if p.done {
		return proto.Op{Kind: proto.OpOutput, Val: p.out}
	}
	if v, final := p.conv.M.Final(p.cur.s); final {
		p.out, p.done = v, true
		return proto.Op{Kind: proto.OpOutput, Val: v}
	}
	return p.conv.M.Nu(p.cur.s)
}

// ApplyScan implements proto.Process.
func (p *Process) ApplyScan(view []proto.Value) {
	p.advance(view)
}

// ApplyUpdate implements proto.Process.
func (p *Process) ApplyUpdate() {
	p.advance(nil)
}

func (p *Process) advance(resp []Value) {
	next, err := p.conv.nextState(p.cur, resp)
	if err != nil {
		panic(err)
	}
	p.cur = next
	if v, final := p.conv.M.Final(p.cur.s); final {
		p.out, p.done = v, true
	}
}

// SoloDistance returns the length of the shortest solo path from the current
// state, or -1 if none was found within the search budget. It exposes the
// quantity whose strict decrease proves obstruction-freedom (Theorem 35).
func (p *Process) SoloDistance() (int, error) {
	if p.done {
		return 0, nil
	}
	return p.conv.shortestSoloPath(p.cur)
}

// Clone implements proto.Process. Clones share the (immutable, memoized)
// converter.
func (p *Process) Clone() proto.Process {
	q := *p
	q.cur = node{s: p.cur.s, ep: append([]Value(nil), p.cur.ep...)}
	return &q
}

// RestoreFrom implements proto.Restorer. The expected contents get a fresh
// slice, as in Clone: solo successor nodes share theirs, so the receiver's
// cannot be overwritten in place.
func (p *Process) RestoreFrom(src proto.Process) {
	q := src.(*Process)
	*p = *q
	p.cur.ep = append([]Value(nil), q.cur.ep...)
}

// State returns the current machine state (for tests and inspection).
func (p *Process) State() State { return p.cur.s }

// Expected returns a copy of E_p, the contents the process expects its next
// solo scan to return.
func (p *Process) Expected() []Value {
	return append([]Value(nil), p.cur.ep...)
}
