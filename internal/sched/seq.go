package sched

import "fmt"

// SeqEngine is the direct-dispatch sequential execution engine, the only
// engine. The paper's interleaving model only requires that base-object
// steps happen one at a time in an adversarially chosen order; it never
// requires real concurrency. SeqEngine therefore runs processes as resumable
// step machines (see Machine) and grants steps by plain function calls: no
// goroutines are created and no channel operations are performed. Every
// granted Resume performs exactly one gated base-object step; an operation
// that takes several steps (a register-built snapshot, an augmented-snapshot
// operation) is a Cursor that the machine steps once per Resume.
//
// The package's tests require SeqEngine to grant the same steps and return
// the same Result as a goroutine-per-process reference runner for the same
// (Strategy, seed) and machines. The engine records no schedule: the
// Strategy made the picks, and a step hook sees every step. An engine
// executes one run per Restart: a second run without a Restart in between
// fails with ErrReused. Restart keeps the engine's buffers, so a search that
// executes many short runs keeps one engine and restarts it per run.
type SeqEngine struct {
	core schedCore

	n      int
	onStep func(StepRecord)

	// Run state. The slices are allocated by the first run and reused by
	// every run after a Restart.
	stepsBy []int
	parked  []bool
	// numFinished counts the processes out of the run: finished, panicked
	// or dropped.
	numFinished int
	// res is the Result every run returns a pointer to, refilled per run.
	res Result

	// resumed is set by a Restart from a checkpoint, which preloads the run
	// state: RunMachines skips the run-to-first-gate phase and continues
	// granting steps where the checkpointed engine left off.
	resumed bool

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
// immediately before executing an operation; it records the granted step of
// the machine being resumed.
func (e *SeqEngine) Step(pid int, op Op) {
	if e.closed {
		panic(fmt.Sprintf("sched: Step(%d, %s) after the run completed; gated objects cannot be used once the run returns", pid, op))
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
	e.stepsBy[pid]++
	e.stepped = true
	if e.onStep != nil {
		// The grant of this step advanced core.step past it.
		e.onStep(StepRecord{Seq: e.core.step - 1, PID: pid, Op: op})
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
	parked = m.Resume()
	if granted && !e.stepped {
		panic(machineNoStepMsg(pid))
	}
	return parked, nil, false
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
	// closed marks the run over on every exit, so Restart can tell a finished
	// run from one in progress.
	defer func() { e.closed = true }()
	if len(machines) != e.n {
		return nil, fmt.Errorf("sched: got %d machines for %d processes", len(machines), e.n)
	}
	aborting := false
	var runErr error

	recordPanic := func(pid int, v any) {
		if runErr == nil {
			runErr = fmt.Errorf("sched: process %d panicked: %v", pid, v)
		}
		aborting = true
	}

	if !e.resumed {
		// Resumed runs skip this phase: their machines hold the system
		// state at the checkpoint, already poised on their next operations,
		// and Restart preloaded the run state.
		e.allocRunState()

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
				e.numFinished++
			}
		}
	}

	for e.numFinished < e.n {
		if aborting {
			// Parked machines are simply dropped: a machine holds no
			// resources between Resumes.
			for pid := 0; pid < e.n; pid++ {
				if e.parked[pid] {
					e.parked[pid] = false
					e.numFinished++
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
			e.numFinished++
		}
	}

	steps := 0
	for _, s := range e.stepsBy {
		steps += s
	}
	e.res = Result{Steps: steps, StepsBy: e.stepsBy}
	return &e.res, runErr
}

// SeqCheckpoint is a frozen mid-run snapshot of a SeqEngine's scheduling
// state: the granted-step count, each process's steps, which processes are
// parked, and how many are out of the run. Together with a copy of the
// system state at the same point (see trace.System.Restore) it lets
// exhaustive exploration resume runs from the deepest common schedule
// prefix instead of replaying every schedule from scratch. A checkpoint may
// seed any number of resumed runs; it changes only when CheckpointInto
// refills it.
type SeqCheckpoint struct {
	step        int
	stepsBy     []int
	parked      []bool
	numFinished int
}

// CheckpointInto captures the engine's current scheduling state in cp,
// refilling its buffers: a search that keeps a stack of checkpoints reuses
// their storage, and new(SeqCheckpoint) is an empty one to fill. It must be
// called while the engine is quiescent — every live process parked at its
// gate — which in practice means from within Strategy.Pick, the engine's
// decision point.
func (e *SeqEngine) CheckpointInto(cp *SeqCheckpoint) {
	cp.step = e.core.step
	cp.stepsBy = append(cp.stepsBy[:0], e.stepsBy...)
	cp.parked = append(cp.parked[:0], e.parked...)
	cp.numFinished = e.numFinished
}

// Restart rewinds the engine for another run under strat, keeping its
// options (step budget, step hook) and its buffers. With from nil the next
// run starts from scratch. With from non-nil it resumes from that checkpoint:
// RunMachines must then be called with machines in the system state at the
// checkpoint, such as machines restored from a copy taken there (same pids;
// entries for finished processes may be nil), and the engine's own step
// budget applies.
//
// A run's *Result is the engine's own, and the buffer it aliases (StepsBy)
// is one Restart clears and refills: a Result is valid only until the next
// Restart of the engine that produced it. Copy whatever must outlive it.
//
// Restart must not be called while a run is in progress, for example from
// Strategy.Pick; it panics.
func (e *SeqEngine) Restart(strat Strategy, from *SeqCheckpoint) {
	if e.started && !e.closed {
		panic("sched: SeqEngine.Restart called during a run (from a strategy or a process); restart only between runs")
	}
	e.core.strat, e.core.step = strat, 0
	e.started, e.closed = false, false
	e.resumed = from != nil
	e.allocRunState()
	if from == nil {
		clear(e.stepsBy)
		clear(e.parked)
		e.numFinished = 0
	} else {
		copy(e.stepsBy, from.stepsBy)
		copy(e.parked, from.parked)
		e.numFinished, e.core.step = from.numFinished, from.step
	}
}

// allocRunState allocates the per-run buffers on the engine's first run;
// later runs reuse them (Restart clears them).
func (e *SeqEngine) allocRunState() {
	if e.stepsBy != nil {
		return
	}
	e.stepsBy = make([]int, e.n)
	e.parked = make([]bool, e.n)
}
