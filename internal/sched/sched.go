// Package sched provides a deterministic gated scheduler for asynchronous
// shared-memory systems.
//
// The paper's model (§2) is an interleaving model: a configuration consists of
// the state of each process and the value of each base object, and a step is
// one atomic operation on one base object by one process, chosen by an
// adversarial scheduler. SeqEngine (see seq.go) realizes that model directly:
// processes run as resumable step machines (see Machine) and every
// base-object operation passes through its Step gate, with no goroutines and
// no channel operations. Steps are picked by a pluggable Strategy, so
// executions are sequential at the base-object level, reproducible from
// (Strategy, seed), replayable, and free of data races by construction.
//
// The package's tests keep a goroutine-per-process reference runner
// (runner_test.go) that admits one operation at a time through a channel
// gate; the equivalence tests require SeqEngine to match it step for step.
package sched

import (
	"errors"
	"strconv"
)

// OpKind classifies a base-object operation for traces and step accounting.
type OpKind int

// Base-object operation kinds.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpScan
	OpUpdate
)

// String returns the conventional lower-case name of the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpScan:
		return "scan"
	case OpUpdate:
		return "update"
	default:
		return "OpKind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Op describes one base-object operation as seen by the scheduler gate.
type Op struct {
	Object string // name of the base object, e.g. "H" or "M"
	Kind   OpKind
	Comp   int // component/register index, -1 if not applicable
}

// String renders the operation as Object.kind[comp]. It avoids fmt so that
// rendering ops (e.g. from a step hook) stays a single-allocation operation.
func (o Op) String() string {
	kind := o.Kind.String()
	buf := make([]byte, 0, len(o.Object)+len(kind)+8)
	buf = append(buf, o.Object...)
	buf = append(buf, '.')
	buf = append(buf, kind...)
	if o.Comp >= 0 {
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(o.Comp), 10)
		buf = append(buf, ']')
	}
	return string(buf)
}

// StepRecord is one granted step in an execution trace.
type StepRecord struct {
	Seq int // 0-based global sequence number
	PID int
	Op  Op
}

// Strategy picks which enabled process takes the next step. The enabled slice
// is sorted ascending and non-empty; Pick must either return one of its
// elements or Halt to stop scheduling (crashing all remaining processes).
type Strategy interface {
	Pick(step int, enabled []int) int
}

// Halt is the sentinel a Strategy returns to stop the run; all processes that
// have not yet finished are treated as crashed.
const Halt = -1

// ErrMaxSteps reports that a run exceeded its step budget. For wait-free and
// obstruction-free protocols under the corresponding adversaries this
// indicates a liveness bug (or a deliberately starved protocol).
var ErrMaxSteps = errors.New("sched: step budget exceeded")

// Result describes a finished (or halted) run. Trace, StepsBy and Finished
// alias the engine's buffers: they stay valid until the engine is restarted
// (see SeqEngine.Restart).
type Result struct {
	Trace     []StepRecord
	Steps     int
	StepsBy   []int // per-PID granted step counts
	Finished  []bool
	Halted    bool // Strategy returned Halt before all processes finished
	PanicVals []any
}
