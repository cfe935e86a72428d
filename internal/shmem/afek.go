package shmem

import "fmt"

// This file implements wait-free snapshot objects from atomic registers in
// the style of Afek, Attiya, Dolev, Gafni, Merritt and Shavit ("Atomic
// snapshots of shared memory", JACM 1993), cited as [2] by the paper. The
// paper's space accounting relies on the equivalence between m registers and
// an m-component snapshot object (§2); these constructions realize the
// non-trivial direction. They use unbounded sequence numbers, which is the
// standard simplification of [2].

// SnapOp is a scan or an update in progress on a snapshot built from
// registers: the double collect shared by RegSWSnapshot, RegMWSnapshot and
// nst.TaggedRegisters, a cursor (sched.Cursor) whose Step performs one
// register read or write. It collects until the object's settle rule
// accepts the last two collects; an update then writes. The blocking Scan
// and Update run the same cursors to completion.
type SnapOp struct {
	regs   []*Register
	pid    int
	settle SettleRule
	write  func(view []Value) // an update's register write; nil for a scan
	rec    Recorder           // records a completed scan, if non-nil

	prev, cur []Value // raw register contents of the last two collects
	next      int     // register the current collect reads next
	collected bool    // prev holds a complete collect
	view      []Value
	settled   bool
}

// SettleRule decides from the raw contents of the last two collects whether
// a scan returns its view (true) or collects again; it may keep
// per-operation state, so each SnapOp gets a fresh one.
type SettleRule func(prev, cur []Value) ([]Value, bool)

// NewSnapOp returns an operation by pid over regs that takes no step until
// its first Step. A scan (nil write) is recorded by rec, if non-nil; an
// update's write does its register write and recording. With a nil settle
// rule the operation is just the write.
func NewSnapOp(regs []*Register, pid int, settle SettleRule, write func(view []Value), rec Recorder) *SnapOp {
	return &SnapOp{
		regs: regs, pid: pid, settle: settle, write: write, rec: rec, settled: settle == nil,
		prev: make([]Value, len(regs)), cur: make([]Value, len(regs)),
	}
}

// Step performs the operation's next register read or write and reports
// whether the operation completed.
func (o *SnapOp) Step() bool {
	if o.settled { // the update's write
		o.write(o.view)
		return true
	}
	o.cur[o.next] = o.regs[o.next].Read(o.pid)
	if o.next++; o.next < len(o.regs) {
		return false
	}
	o.next = 0
	if o.collected {
		if view, ok := o.settle(o.prev, o.cur); ok {
			o.view, o.settled = view, true
			if o.write != nil {
				return false
			}
			if o.rec != nil {
				o.rec.RecordScan(o.pid, view)
			}
			return true
		}
	}
	o.prev, o.cur = o.cur, o.prev
	o.collected = true
	return false
}

// View returns the scanned view (for an update, its embedded scan) once the
// operation has completed.
func (o *SnapOp) View() []Value { return o.view }

// Run drives the operation to completion and returns its view.
func (o *SnapOp) Run() []Value {
	for !o.Step() {
	}
	return o.view
}

// swRec is the contents of one underlying register of a RegSWSnapshot.
type swRec struct {
	Val  Value
	Seq  int     // per-writer sequence number, 0 for the initial value
	View []Value // embedded scan taken by the writer before writing
}

// RegSWSnapshot is a single-writer snapshot implemented from f atomic
// single-writer registers. Update embeds a scan (the "helping" view) so that
// a scanner that observes the same register move twice can borrow the
// writer's view; this makes both operations wait-free.
type RegSWSnapshot struct {
	regs []*Register
	f    int
	seq  []int
	rec  Recorder
}

// NewRegSWSnapshot returns an f-component register-built single-writer
// snapshot with all components initial.
func NewRegSWSnapshot(name string, st Stepper, f int, initial Value) *RegSWSnapshot {
	s := &RegSWSnapshot{f: f, seq: make([]int, f)}
	init := make([]Value, f)
	for i := range init {
		init[i] = initial
	}
	s.regs = make([]*Register, f)
	for i := range s.regs {
		s.regs[i] = NewRegister(fmt.Sprintf("%s[%d]", name, i), st, swRec{Val: initial, View: init})
	}
	return s
}

// SetRecorder installs a history recorder. Recording points are the write for
// Update and the final collect (or borrow) for Scan, which are valid
// linearization points of the Afek et al. construction.
func (s *RegSWSnapshot) SetRecorder(r Recorder) { s.rec = r }

// Components returns the number of components (= underlying registers).
func (s *RegSWSnapshot) Components() int { return s.f }

// Update sets process pid's own component to v.
func (s *RegSWSnapshot) Update(pid int, v Value) { s.StartUpdate(pid, v).Run() }

// Scan returns an atomic view of all components.
func (s *RegSWSnapshot) Scan(pid int) []Value { return s.StartScan(pid).Run() }

// StartScan begins a Scan by pid without taking a step.
func (s *RegSWSnapshot) StartScan(pid int) *SnapOp {
	return NewSnapOp(s.regs, pid, s.settle(), nil, s.rec)
}

// StartUpdate begins an Update of pid's component to v without taking a
// step: the embedded scan, then the write.
func (s *RegSWSnapshot) StartUpdate(pid int, v Value) *SnapOp {
	return NewSnapOp(s.regs, pid, s.settle(), func(view []Value) {
		s.seq[pid]++
		s.regs[pid].Write(pid, swRec{Val: v, Seq: s.seq[pid], View: view})
		if s.rec != nil {
			s.rec.RecordUpdate(pid, pid, v)
		}
	}, nil)
}

// settle is the double collect with borrowing: a scan returns when two
// collects agree, or borrows the embedded view of a register that moved
// twice during it.
func (s *RegSWSnapshot) settle() SettleRule {
	moved := make([]int, s.f)
	return func(prev, cur []Value) ([]Value, bool) {
		out := make([]Value, s.f)
		same := true
		for j := range cur {
			c := cur[j].(swRec)
			if c.Seq == prev[j].(swRec).Seq {
				out[j] = c.Val
				continue
			}
			same = false
			if moved[j]++; moved[j] >= 2 {
				// Register j changed twice during this scan: its latest
				// writer performed a complete embedded scan within our
				// execution interval, so its view is linearizable here.
				copy(out, c.View)
				return out, true
			}
		}
		return out, same
	}
}

// mwRec is the contents of one underlying register of a RegMWSnapshot. The
// (Writer, Seq) pair is a unique tag: Seq is the writer's private counter.
type mwRec struct {
	Val    Value
	Writer int
	Seq    int
	View   []Value
}

// RegMWSnapshot is an m-component multi-writer snapshot implemented from m
// atomic multi-writer registers, the multi-writer analogue of RegSWSnapshot.
type RegMWSnapshot struct {
	regs []*Register
	m    int
	seq  []int // per-process private counters, indexed by pid
	rec  Recorder
}

// NewRegMWSnapshot returns an m-component register-built multi-writer
// snapshot shared by up to nproc processes, all components initial.
func NewRegMWSnapshot(name string, st Stepper, m, nproc int, initial Value) *RegMWSnapshot {
	s := &RegMWSnapshot{m: m, seq: make([]int, nproc)}
	init := make([]Value, m)
	for i := range init {
		init[i] = initial
	}
	s.regs = make([]*Register, m)
	for j := range s.regs {
		s.regs[j] = NewRegister(fmt.Sprintf("%s[%d]", name, j), st, mwRec{Val: initial, Writer: -1, View: init})
	}
	return s
}

// SetRecorder installs a history recorder.
func (s *RegMWSnapshot) SetRecorder(r Recorder) { s.rec = r }

// Components returns the number of components (= underlying registers).
func (s *RegMWSnapshot) Components() int { return s.m }

// Update sets component j to v on behalf of process pid.
func (s *RegMWSnapshot) Update(pid, j int, v Value) { s.StartUpdate(pid, j, v).Run() }

// Scan returns an atomic view of all components.
func (s *RegMWSnapshot) Scan(pid int) []Value { return s.StartScan(pid).Run() }

// StartScan begins a Scan by pid without taking a step.
func (s *RegMWSnapshot) StartScan(pid int) *SnapOp {
	return NewSnapOp(s.regs, pid, s.settle(), nil, s.rec)
}

// StartUpdate begins an Update of component j to v by pid without taking a
// step: the embedded scan, then the write.
func (s *RegMWSnapshot) StartUpdate(pid, j int, v Value) *SnapOp {
	return NewSnapOp(s.regs, pid, s.settle(), func(view []Value) {
		s.seq[pid]++
		s.regs[j].Write(pid, mwRec{Val: v, Writer: pid, Seq: s.seq[pid], View: view})
		if s.rec != nil {
			s.rec.RecordUpdate(pid, j, v)
		}
	}, nil)
}

// settle is the multi-writer double collect. A register changing twice is
// not enough to borrow here (the two changes may come from two writers
// whose embedded scans predate ours). Instead it counts fresh tags per
// *writer*: minFresh[w] is the smallest sequence number among writes by w
// observed to land during this scan. A later fresh write by w (strictly
// larger seq) embedded a scan that began after that observed write
// completed, hence inside our interval, so its view is safe to borrow. (Two
// fresh tags alone are not enough: collects read registers in index order,
// so an older write can be observed after a newer one.)
func (s *RegMWSnapshot) settle() SettleRule {
	minFresh := make(map[int]int)
	return func(prev, cur []Value) ([]Value, bool) {
		out := make([]Value, s.m)
		same := true
		for j := range cur {
			c, p := cur[j].(mwRec), prev[j].(mwRec)
			if c.Writer == p.Writer && c.Seq == p.Seq {
				out[j] = c.Val
				continue
			}
			same = false
			if first, ok := minFresh[c.Writer]; ok && c.Seq > first {
				copy(out, c.View)
				return out, true
			}
			minFresh[c.Writer] = c.Seq
		}
		return out, same
	}
}
