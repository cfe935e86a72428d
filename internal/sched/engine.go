package sched

import (
	"errors"
	"fmt"
)

// Stepper gates base-object operations. Shared objects (package shmem) call
// Step immediately before executing an operation; the engine behind the
// Stepper decides when the operation is admitted and counts it.
// *SeqEngine implements Stepper.
type Stepper interface {
	Step(pid int, op Op)
}

// Machine is a resumable process body: a state machine that the sequential
// engine drives by direct function dispatch, with zero goroutines and zero
// channel operations.
//
// The contract mirrors the phases of a gated goroutine body:
//
//   - The first Resume call runs the process's local computation up to its
//     first gated base-object operation and returns true, or false if the
//     process finishes without taking any steps. No gated operation is
//     executed by the first call.
//   - Every later Resume call executes exactly one gated base-object
//     operation (a single Stepper.Step is reached, through a shared object)
//     and then runs local computation up to the next gate. It returns true if
//     the process is poised on another operation, false if it finished.
//
// An operation that takes several gated steps (a register-built snapshot's
// scan, an augmented-snapshot Block-Update) is a Cursor, stepped once per
// Resume; Processes builds machines whose processes are sequences of cursors.
type Machine interface {
	Resume() bool
}

// Cursor is an operation in progress that takes gated steps: every Step
// performs exactly one gated base-object operation and reports whether the
// operation completed.
type Cursor interface {
	Step() bool
}

// Processes returns n machines: process pid performs the cursors op(pid, 0),
// op(pid, 1), ... one Step per granted Resume, until op returns nil. op is
// called in the Resume that completes the previous operation (the first in
// the first Resume); it is local computation and must take no gated step.
func Processes(n int, op func(pid, i int) Cursor) []Machine {
	ms := make([]Machine, n)
	for pid := range ms {
		ms[pid] = &cursorMachine{pid: pid, op: op}
	}
	return ms
}

// cursorMachine is one process of Processes.
type cursorMachine struct {
	pid, next int // next is the index of the next operation to start
	op        func(pid, i int) Cursor
	cur       Cursor
}

// Resume implements Machine.
func (m *cursorMachine) Resume() bool {
	if m.next > 0 && !m.cur.Step() {
		return true
	}
	m.cur = m.op(m.pid, m.next)
	m.next++
	return m.cur != nil
}

// EngineName is the name the sequential engine is recorded under. Job
// specs and witness files carry an engine field from when there was a
// choice of engines; CheckEngine keeps old documents decoding.
const EngineName = "seq"

// CheckEngine validates the engine name of a job spec or witness file: ""
// and EngineName name the one engine, anything else (including the retired
// "goroutine") is an error.
func CheckEngine(name string) error {
	if name == "" || name == EngineName {
		return nil
	}
	return fmt.Errorf("sched: unknown engine %q (the only engine is %q)", name, EngineName)
}

// ErrReused reports a second run on an engine that was not restarted in
// between (see SeqEngine.Restart).
var ErrReused = errors.New("sched: engine already ran: restart it (or create a new one) per run")

// engineConfig carries the engine options.
type engineConfig struct {
	maxSteps int
	onStep   func(StepRecord)
}

// Option configures an engine.
type Option func(*engineConfig)

// WithMaxSteps caps the number of granted steps (default 1 << 20).
func WithMaxSteps(n int) Option {
	return func(c *engineConfig) { c.maxSteps = n }
}

// WithStepHook installs a callback invoked synchronously for every granted
// step, before the step's operation executes.
func WithStepHook(fn func(StepRecord)) Option {
	return func(c *engineConfig) { c.onStep = fn }
}

func newEngineConfig(opts []Option) engineConfig {
	c := engineConfig{maxSteps: 1 << 20}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Machine-contract violation messages. The reference runner in this
// package's tests reports the same ones, so the same buggy machine surfaces
// as the same error on either.
// opDetail is " <op>" when the violating operation is known, "" otherwise.
func machineStartStepMsg(pid int, opDetail string) string {
	return fmt.Sprintf("sched: machine %d performed a gated operation%s while running to its first gate; the first Resume must not execute an operation", pid, opDetail)
}

func machineNoStepMsg(pid int) string {
	return fmt.Sprintf("sched: machine %d performed no gated operation on its granted step", pid)
}

func machineSecondStepMsg(pid int, opDetail string) string {
	return fmt.Sprintf("sched: machine %d performed a second gated operation%s in one granted step; machines must take exactly one step per Resume", pid, opDetail)
}

// schedCore is the scheduling decision kernel: the step-budget check,
// enabled-set construction, strategy pick and pick validation. The
// reference runner in this package's tests shares it, so an equivalence
// failure there points at process dispatch, not at scheduling.
type schedCore struct {
	n        int
	strat    Strategy
	maxSteps int
	step     int
	enabled  []int // scratch buffer for the sorted enabled set
}

func newSchedCore(n int, strat Strategy, maxSteps int) schedCore {
	return schedCore{n: n, strat: strat, maxSteps: maxSteps, enabled: make([]int, 0, n)}
}

// pick chooses the next process to grant a step among the parked ones
// (parked[pid] true ⇔ pid is at its gate). It reports halt when the strategy
// stops the run, an error for a blown step budget or an invalid pick, and
// otherwise advances the step counter and returns the granted pid.
func (c *schedCore) pick(parked []bool) (pid int, halt bool, err error) {
	if c.step >= c.maxSteps {
		return 0, false, fmt.Errorf("%w (budget %d)", ErrMaxSteps, c.maxSteps)
	}
	enabled := c.enabled[:0]
	for p := 0; p < c.n; p++ {
		if parked[p] {
			enabled = append(enabled, p)
		}
	}
	p := c.strat.Pick(c.step, enabled)
	if p == Halt {
		return 0, true, nil
	}
	if p < 0 || p >= c.n || !parked[p] {
		return 0, false, fmt.Errorf("sched: strategy picked pid %d not in enabled set %v", p, enabled)
	}
	c.step++
	return p, false, nil
}
