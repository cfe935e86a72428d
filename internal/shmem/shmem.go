// Package shmem implements the base objects of the paper's model (§2):
// multi-writer registers, single-writer and multi-writer atomic snapshot
// objects, and register-built snapshot implementations.
//
// Every operation on an atomic object is exactly one scheduler step (gated
// through a Stepper). Register-built snapshots take one step per underlying
// register operation, which is what the paper's space/step accounting
// ("each m-component snapshot object counts as m registers") expects.
package shmem

import (
	"fmt"

	"revisionist/internal/sched"
)

// Value is the contents of a register or snapshot component, and the single
// source of truth for every value type in the repository: protocol values
// (proto.Value), augmented snapshot values (augsnap.Value) and task
// inputs/outputs (spec.Value) are all re-exports of this alias. Values are
// treated as immutable once written: writers must not mutate a value after
// passing it to Write/Update, and readers must not mutate returned values.
type Value = any

// Stepper gates base-object operations. *sched.SeqEngine implements it;
// Free can be used to run without a scheduler (single-threaded tests, local
// simulation).
type Stepper = sched.Stepper

// Free is a Stepper that admits every operation immediately. It makes shared
// objects usable from a single goroutine without a scheduler.
type Free struct{}

// Step implements Stepper.
func (Free) Step(int, sched.Op) {}

// Register is an atomic multi-writer multi-reader register.
type Register struct {
	name    string
	stepper Stepper
	v       Value
}

// NewRegister returns a register with the given initial value.
func NewRegister(name string, st Stepper, initial Value) *Register {
	return &Register{name: name, stepper: st, v: initial}
}

// Write atomically sets the register's value.
func (r *Register) Write(pid int, v Value) {
	r.stepper.Step(pid, sched.Op{Object: r.name, Kind: sched.OpWrite, Comp: -1})
	r.v = v
}

// Read atomically returns the register's value.
func (r *Register) Read(pid int) Value {
	r.stepper.Step(pid, sched.Op{Object: r.name, Kind: sched.OpRead, Comp: -1})
	return r.v
}

// SWSnapshot is an atomic single-writer snapshot object with one component
// per process: component i may be updated only by process i (§2).
type SWSnapshot struct {
	name    string
	stepper Stepper
	comps   []Value
	updates int
	scans   int
	rec     Recorder
}

// NewSWSnapshot returns an f-component single-writer snapshot whose
// components are all initial.
func NewSWSnapshot(name string, st Stepper, f int, initial Value) *SWSnapshot {
	comps := make([]Value, f)
	for i := range comps {
		comps[i] = initial
	}
	return &SWSnapshot{name: name, stepper: st, comps: comps}
}

// SetRecorder installs a history recorder (see Recorder). It must be called
// before the object is shared.
func (s *SWSnapshot) SetRecorder(r Recorder) { s.rec = r }

// Components returns the number of components (= registers it accounts for).
func (s *SWSnapshot) Components() int { return len(s.comps) }

// Update atomically sets process pid's own component.
func (s *SWSnapshot) Update(pid int, v Value) {
	if pid < 0 || pid >= len(s.comps) {
		panic(fmt.Sprintf("shmem: SWSnapshot %q update by out-of-range pid %d", s.name, pid))
	}
	s.stepper.Step(pid, sched.Op{Object: s.name, Kind: sched.OpUpdate, Comp: pid})
	s.comps[pid] = v
	s.updates++
	if s.rec != nil {
		s.rec.RecordUpdate(pid, pid, v)
	}
}

// Scan atomically returns the value of every component.
func (s *SWSnapshot) Scan(pid int) []Value {
	out := make([]Value, len(s.comps))
	s.ScanInto(pid, out)
	return out
}

// ScanInto is Scan into a caller-provided slice of length Components(),
// avoiding the result allocation on hot paths; the caller must not retain
// component values beyond their copy semantics (Value contents are immutable
// once written).
func (s *SWSnapshot) ScanInto(pid int, out []Value) {
	if len(out) != len(s.comps) {
		panic(fmt.Sprintf("shmem: SWSnapshot %q ScanInto with %d-slot buffer for %d components", s.name, len(out), len(s.comps)))
	}
	s.stepper.Step(pid, sched.Op{Object: s.name, Kind: sched.OpScan, Comp: -1})
	copy(out, s.comps)
	s.scans++
	if s.rec != nil {
		s.rec.RecordScan(pid, out)
	}
}

// OpCounts reports the number of updates and scans applied so far.
func (s *SWSnapshot) OpCounts() (updates, scans int) { return s.updates, s.scans }

// MWSnapshot is an atomic m-component multi-writer snapshot object: every
// process may update every component (§2). It is the object of the paper's
// simulated system.
type MWSnapshot struct {
	name    string
	stepper Stepper
	comps   []Value
	updates int
	scans   int
	rec     Recorder
}

// NewMWSnapshot returns an m-component multi-writer snapshot whose components
// are all initial.
func NewMWSnapshot(name string, st Stepper, m int, initial Value) *MWSnapshot {
	comps := make([]Value, m)
	for i := range comps {
		comps[i] = initial
	}
	return &MWSnapshot{name: name, stepper: st, comps: comps}
}

// SetRecorder installs a history recorder.
func (s *MWSnapshot) SetRecorder(r Recorder) { s.rec = r }

// Components returns the number of components (= registers it accounts for).
func (s *MWSnapshot) Components() int { return len(s.comps) }

// Update atomically sets component j to v.
func (s *MWSnapshot) Update(pid, j int, v Value) {
	if j < 0 || j >= len(s.comps) {
		panic(fmt.Sprintf("shmem: MWSnapshot %q update to out-of-range component %d", s.name, j))
	}
	s.stepper.Step(pid, sched.Op{Object: s.name, Kind: sched.OpUpdate, Comp: j})
	s.comps[j] = v
	s.updates++
	if s.rec != nil {
		s.rec.RecordUpdate(pid, j, v)
	}
}

// Scan atomically returns the value of every component.
func (s *MWSnapshot) Scan(pid int) []Value {
	s.stepper.Step(pid, sched.Op{Object: s.name, Kind: sched.OpScan, Comp: -1})
	out := make([]Value, len(s.comps))
	copy(out, s.comps)
	s.scans++
	if s.rec != nil {
		s.rec.RecordScan(pid, out)
	}
	return out
}

// OpCounts reports the number of updates and scans applied so far.
func (s *MWSnapshot) OpCounts() (updates, scans int) { return s.updates, s.scans }

// Recorder receives the linearized history of a snapshot object. Because the
// gated scheduler serializes operations, the callback order is the
// linearization order.
//
// The view slice passed to RecordScan is only valid for the duration of the
// callback: scan fast paths (SWSnapshot.ScanInto) reuse the caller's buffer
// across scans. A Recorder that wants to keep a view must copy it.
type Recorder interface {
	RecordUpdate(pid, comp int, v Value)
	RecordScan(pid int, view []Value)
}
