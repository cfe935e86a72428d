package sched

import (
	"fmt"
	"iter"
)

// SeqEngine is the direct-dispatch sequential execution engine, the only
// engine. The paper's interleaving model only requires that base-object
// steps happen one at a time in an adversarially chosen order; it never
// requires real concurrency. SeqEngine therefore runs processes as resumable
// step machines (see Machine) and grants steps by plain function calls: no
// goroutines are created and no channel operations are performed.
//
// Process bodies written as closures (func(pid int)) are also supported:
// SeqEngine.Run bridges each body onto a pull-based coroutine (iter.Pull),
// whose suspend/resume is a direct runtime switch — still no channels and no
// scheduler handshakes on the hot path.
//
// The package's tests require SeqEngine to produce the same trace and
// Result as a goroutine-per-process reference runner for the same
// (Strategy, seed) and process bodies. A SeqEngine is single-use: create one
// per run.
type SeqEngine struct {
	core schedCore

	n      int
	onStep func(StepRecord)

	trace       []StepRecord
	stepsBy     []int
	parked      []bool
	finished    []bool
	numFinished int

	// resumeFrom, when non-nil, preloads the run state from a mid-run
	// checkpoint: RunMachines skips the run-to-first-gate phase and continues
	// granting steps where the checkpointed engine left off.
	resumeFrom *SeqCheckpoint

	// Coroutine bridge state (Run only): yields[pid] is the live yield
	// function of pid's coroutine; poised[pid] is the op pid is parked on.
	yields    []func(Op) bool
	poised    []Op
	hasPoised []bool

	cur     int  // pid currently being resumed, -1 outside a resume
	inGrant bool // current resume is a granted step (not the run-to-first-gate)
	stepped bool // the granted op of the current resume has been recorded
	started bool
	closed  bool
}

// NewSeqEngine returns a sequential engine for n processes scheduled by strat.
func NewSeqEngine(n int, strat Strategy, opts ...Option) *SeqEngine {
	c := newEngineConfig(opts)
	return &SeqEngine{
		core:   newSchedCore(n, strat, c.maxSteps),
		n:      n,
		onStep: c.onStep,
		cur:    -1,
	}
}

// Step admits one base-object operation by pid. Shared objects call it
// immediately before executing an operation. For a machine being resumed it
// records the granted step directly; for a coroutine-bridged body it suspends
// the body at the gate until the scheduler grants its next step.
func (e *SeqEngine) Step(pid int, op Op) {
	if e.closed {
		panic(fmt.Sprintf("sched: Step(%d, %s) after the run completed; gated objects cannot be used once Run returns", pid, op))
	}
	if e.yields != nil && pid >= 0 && pid < e.n && e.yields[pid] != nil {
		if !e.yields[pid](op) {
			panic(abortSignal{})
		}
		return
	}
	if pid != e.cur {
		panic(fmt.Sprintf("sched: gated operation %s by pid %d outside its scheduling slot (machine for pid %d is being resumed)", op, pid, e.cur))
	}
	if !e.inGrant {
		panic(machineStartStepMsg(pid, " "+op.String()))
	}
	if e.stepped {
		panic(machineSecondStepMsg(pid, " "+op.String()))
	}
	e.record(pid, op)
}

// record appends one granted step to the trace, before the step's operation
// executes.
func (e *SeqEngine) record(pid int, op Op) {
	rec := StepRecord{Seq: len(e.trace), PID: pid, Op: op}
	e.trace = append(e.trace, rec)
	e.stepsBy[pid]++
	e.stepped = true
	if e.onStep != nil {
		e.onStep(rec)
	}
}

// resume drives machine pid through one phase: its run-to-first-gate when
// granted is false, or one granted step plus the run to the next gate. It
// reports whether the machine parked again, and captures panics from the
// machine (protocol bugs surface as panics).
func (e *SeqEngine) resume(m Machine, pid int, granted bool) (parked bool, panicVal any, panicked bool) {
	e.cur, e.inGrant, e.stepped = pid, granted, false
	defer func() {
		e.cur, e.inGrant, e.stepped = -1, false, false
		if v := recover(); v != nil {
			panicVal, panicked = v, true
		}
	}()
	if granted && e.hasPoised != nil && e.hasPoised[pid] {
		// Coroutine-bridged body: it is parked inside Step on the op it
		// announced; record the grant before letting the op execute.
		e.hasPoised[pid] = false
		e.record(pid, e.poised[pid])
	}
	parked = m.Resume()
	if granted && !e.stepped {
		panic(machineNoStepMsg(pid))
	}
	return parked, nil, false
}

// aborter is implemented by machines that need unwinding when a run is
// aborted (coroutine-bridged bodies).
type aborter interface {
	Abort()
}

// abort unwinds a parked machine; panics from its teardown are returned like
// process panics.
func (e *SeqEngine) abort(m Machine) (panicVal any, panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			panicVal, panicked = v, true
		}
	}()
	if a, ok := m.(aborter); ok {
		a.Abort()
	}
	return nil, false
}

// RunMachines executes the machines under the engine's strategy by direct
// dispatch until every process finishes, the strategy halts the run, or the
// step budget is exhausted. It returns the execution result; err is non-nil
// only for a blown step budget, a panicking process, a machine-contract
// violation, an invalid pick, or a misused engine.
func (e *SeqEngine) RunMachines(machines []Machine) (*Result, error) {
	if e.started {
		return nil, fmt.Errorf("%w (SeqEngine run twice)", ErrReused)
	}
	e.started = true
	if len(machines) != e.n {
		return nil, fmt.Errorf("sched: got %d machines for %d processes", len(machines), e.n)
	}
	var panics []any
	aborting := false
	halted := false
	var runErr error

	recordPanic := func(pid int, v any) {
		panics = append(panics, v)
		if runErr == nil {
			runErr = fmt.Errorf("sched: process %d panicked: %v", pid, v)
		}
		aborting = true
	}

	if cp := e.resumeFrom; cp != nil {
		// Resuming from a checkpoint: the machines are forks of the system
		// state at the checkpoint, already poised on their next operations, so
		// the run-to-first-gate phase is skipped entirely.
		e.trace = append(make([]StepRecord, 0, len(cp.trace)+traceCap(e.core.maxSteps)), cp.trace...)
		e.stepsBy = append([]int(nil), cp.stepsBy...)
		e.parked = append([]bool(nil), cp.parked...)
		e.finished = append([]bool(nil), cp.finished...)
		e.numFinished = cp.numFinished
		e.core.step = cp.step
	} else {
		e.trace = make([]StepRecord, 0, traceCap(e.core.maxSteps))
		e.stepsBy = make([]int, e.n)
		e.parked = make([]bool, e.n)
		e.finished = make([]bool, e.n)

		// Start every machine: run it to its first gate (or completion).
		for pid := 0; pid < e.n; pid++ {
			parked, v, panicked := e.resume(machines[pid], pid, false)
			switch {
			case panicked:
				e.numFinished++
				recordPanic(pid, v)
			case parked:
				e.parked[pid] = true
			default:
				e.finished[pid] = true
				e.numFinished++
			}
		}
	}

	for e.numFinished < e.n {
		if aborting {
			for pid := 0; pid < e.n; pid++ {
				if !e.parked[pid] {
					continue
				}
				e.parked[pid] = false
				e.numFinished++
				if v, panicked := e.abort(machines[pid]); panicked {
					recordPanic(pid, v)
				}
			}
			continue
		}
		pick, halt, perr := e.core.pick(e.parked)
		if perr != nil {
			if runErr == nil {
				runErr = perr
			}
			aborting = true
			continue
		}
		if halt {
			halted = true
			aborting = true
			continue
		}
		e.parked[pick] = false
		parked, v, panicked := e.resume(machines[pick], pick, true)
		switch {
		case panicked:
			e.numFinished++
			recordPanic(pick, v)
		case parked:
			e.parked[pick] = true
		default:
			e.finished[pick] = true
			e.numFinished++
		}
	}

	e.closed = true
	res := &Result{
		Trace:     e.trace,
		Steps:     len(e.trace),
		StepsBy:   e.stepsBy,
		Finished:  e.finished,
		Halted:    halted,
		PanicVals: panics,
	}
	return res, runErr
}

// SeqCheckpoint is a frozen mid-run snapshot of a SeqEngine's scheduling
// state: the granted-step count, the trace prefix, and which processes are
// parked or finished. Together with a deep copy of the system state at the
// same point (trace.System.Fork) it lets exhaustive exploration resume runs
// from the deepest common schedule prefix instead of replaying every
// schedule from scratch. A checkpoint is immutable and may seed any number
// of resumed engines.
type SeqCheckpoint struct {
	step        int
	maxSteps    int
	trace       []StepRecord
	stepsBy     []int
	parked      []bool
	finished    []bool
	numFinished int
}

// Depth returns the number of granted steps at the checkpoint.
func (cp *SeqCheckpoint) Depth() int { return cp.step }

// Checkpoint captures the engine's current scheduling state. It must be
// called while the engine is quiescent — every live process parked at its
// gate — which in practice means from within Strategy.Pick, the engine's
// decision point.
func (e *SeqEngine) Checkpoint() *SeqCheckpoint {
	return &SeqCheckpoint{
		step:        e.core.step,
		maxSteps:    e.core.maxSteps,
		trace:       append([]StepRecord(nil), e.trace...),
		stepsBy:     append([]int(nil), e.stepsBy...),
		parked:      append([]bool(nil), e.parked...),
		finished:    append([]bool(nil), e.finished...),
		numFinished: e.numFinished,
	}
}

// ResumeSeqEngine returns a fresh sequential engine that continues a run
// from cp under strat: RunMachines must be called with machines forked from
// the system state at the checkpoint (same pids; entries for finished
// processes may be nil). The step budget is inherited from the checkpointed
// engine; options may still install a step hook. Like every SeqEngine, the
// returned engine is single-use.
func ResumeSeqEngine(cp *SeqCheckpoint, strat Strategy, opts ...Option) *SeqEngine {
	c := newEngineConfig(opts)
	e := &SeqEngine{
		core:       newSchedCore(len(cp.parked), strat, cp.maxSteps),
		n:          len(cp.parked),
		onStep:     c.onStep,
		cur:        -1,
		resumeFrom: cp,
	}
	return e
}

// Run executes body(pid) for every pid by bridging each body onto a
// pull-based coroutine: the body suspends at every gate (Step) and the
// scheduler resumes it by a direct switch. This keeps arbitrary process
// bodies — including multi-step register-built objects and the revisionist
// simulators — on the sequential engine without rewriting them as explicit
// state machines.
func (e *SeqEngine) Run(body func(pid int)) (*Result, error) {
	if e.resumeFrom != nil {
		return nil, fmt.Errorf("sched: a resumed engine requires RunMachines with forked machines; coroutine-bridged bodies cannot resume from a checkpoint")
	}
	e.yields = make([]func(Op) bool, e.n)
	e.poised = make([]Op, e.n)
	e.hasPoised = make([]bool, e.n)
	machines := make([]Machine, e.n)
	for pid := range machines {
		machines[pid] = newCoroMachine(e, pid, body)
	}
	return e.RunMachines(machines)
}

// coroMachine adapts a closure body to the Machine contract via iter.Pull:
// every yield is one parked gate.
type coroMachine struct {
	e    *SeqEngine
	pid  int
	next func() (Op, bool)
	stop func()
}

func newCoroMachine(e *SeqEngine, pid int, body func(pid int)) *coroMachine {
	c := &coroMachine{e: e, pid: pid}
	c.next, c.stop = iter.Pull(func(yield func(Op) bool) {
		defer func() {
			e.yields[pid] = nil
			if v := recover(); v != nil {
				if _, ok := v.(abortSignal); ok {
					return // a halted run unwinds the body quietly
				}
				panic(v)
			}
		}()
		e.yields[pid] = yield
		body(pid)
	})
	return c
}

// Resume runs the body to its next gate (or completion) and parks the
// announced op with the engine.
func (c *coroMachine) Resume() bool {
	op, ok := c.next()
	if ok {
		c.e.poised[c.pid] = op
		c.e.hasPoised[c.pid] = true
	}
	return ok
}

// Abort unwinds the suspended body.
func (c *coroMachine) Abort() { c.stop() }
