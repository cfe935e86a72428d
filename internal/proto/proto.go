// Package proto defines the paper's simulated processes and runs protocols
// over an m-component multi-writer snapshot (§2, §4).
//
// Per Assumption 1 of the paper, a process alternately performs scan and
// update operations on the snapshot object M, starting with a scan, until a
// scan allows it to output a value. A Process is a deterministic state
// machine exposing exactly that interface, plus Clone, which the revisionist
// simulation uses to store, revise and locally re-run simulated processes.
package proto

import (
	"errors"
	"fmt"

	"revisionist/internal/shmem"
)

// Value is a protocol value stored in snapshot components: a re-export of
// shmem.Value, the repository's single value alias.
type Value = shmem.Value

// OpKind distinguishes the operation a process is poised to perform.
type OpKind int

// Process operation kinds.
const (
	// OpScan: the process's next step is M.scan.
	OpScan OpKind = iota + 1
	// OpUpdate: the process's next step is M.update(Comp, Val).
	OpUpdate
	// OpOutput: the process has output a value and terminated.
	OpOutput
)

// String returns a readable name.
func (k OpKind) String() string {
	switch k {
	case OpScan:
		return "scan"
	case OpUpdate:
		return "update"
	case OpOutput:
		return "output"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is the operation a process is poised to perform.
type Op struct {
	Kind OpKind
	Comp int   // component to update, for OpUpdate
	Val  Value // value to write, for OpUpdate; output value, for OpOutput
}

// Process is a deterministic simulated process (§2, Assumption 1). The state
// machine contract is:
//
//   - NextOp reports the poised operation without changing state.
//   - The first poised operation is OpScan.
//   - After ApplyScan the process is poised to OpUpdate or has OpOutput.
//   - After ApplyUpdate the process is poised to OpScan.
//   - Once OpOutput, the state never changes again.
//
// Clone must return a deep, independent copy: the revisionist simulation
// stores clones, revises their pasts, and re-runs them locally.
type Process interface {
	NextOp() Op
	ApplyScan(view []Value)
	ApplyUpdate()
	Clone() Process
}

// ErrBadAlternation reports a Process violating Assumption 1.
var ErrBadAlternation = errors.New("proto: process violates scan/update alternation (Assumption 1)")

// Snapshot is the object interface protocols run against: the atomic
// MWSnapshot, the register-built RegMWSnapshot, and the simulation's virtual
// memories all implement it. A snapshot whose operations take several steps
// also supplies cursors for them (see Machines).
type Snapshot interface {
	Update(pid, j int, v Value)
	Scan(pid int) []Value
	Components() int
}

// RunResult reports a protocol run.
type RunResult struct {
	// Outputs[i] is the value output by process i; Done[i] says whether
	// process i terminated (crashed/starved processes have Done[i] == false).
	Outputs []Value
	Done    []bool
	// OpsBy[i] counts scan/update operations applied to M by process i.
	OpsBy []int
}

// DoneOutputs returns the outputs of terminated processes only.
func (r *RunResult) DoneOutputs() []Value {
	var out []Value
	for i, d := range r.Done {
		if d {
			out = append(out, r.Outputs[i])
		}
	}
	return out
}

// NewRunResult allocates a result for n processes.
func NewRunResult(n int) *RunResult {
	return &RunResult{
		Outputs: make([]Value, n),
		Done:    make([]bool, n),
		OpsBy:   make([]int, n),
	}
}
