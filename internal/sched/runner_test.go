package sched

import "fmt"

type event struct {
	pid      int
	done     bool
	aborted  bool
	panicked bool
	panicVal any
}

type grant struct {
	abort bool
}

// abortSignal unwinds a process whose run was halted. The body goroutine's
// recover turns it into an aborted event.
type abortSignal struct{}

// Runner is the reference execution engine the equivalence tests compare
// SeqEngine against: it executes n process bodies as goroutines under a
// Strategy, admitting one base-object operation at a time through a channel
// gate. It shares only the scheduling kernel (schedCore) with SeqEngine;
// process dispatch, parking and abort are independent. A Runner is
// single-use: create one per run.
type Runner struct {
	core schedCore

	n       int
	ready   chan event
	resume  []chan grant
	stepsBy []int
	onStep  func(StepRecord)
	started bool
	closed  bool
}

// NewRunner returns a concurrent engine for n processes scheduled by strat.
func NewRunner(n int, strat Strategy, opts ...Option) *Runner {
	c := newEngineConfig(opts)
	r := &Runner{
		core:   newSchedCore(n, strat, c.maxSteps),
		n:      n,
		onStep: c.onStep,
		ready:  make(chan event),
		resume: make([]chan grant, n),
	}
	for i := range r.resume {
		r.resume[i] = make(chan grant)
	}
	return r
}

// Step blocks until the scheduler grants pid its next base-object operation.
// Shared objects call it immediately before executing an operation. It must
// only be called from within a body started by Run.
func (r *Runner) Step(pid int, op Op) {
	if r.closed {
		panic(fmt.Sprintf("sched: Step(%d, %s) after the run completed; gated objects cannot be used once Run returns", pid, op))
	}
	r.ready <- event{pid: pid}
	g := <-r.resume[pid]
	if g.abort {
		panic(abortSignal{})
	}
	r.stepsBy[pid]++
	if r.onStep != nil {
		r.onStep(StepRecord{Seq: r.core.step - 1, PID: pid, Op: op})
	}
}

// RunMachines executes resumable step machines (see Machine) by running each
// as a goroutine body that resumes until its process finishes. It grants the
// same steps as the sequential engine's direct dispatch of the same machines,
// and Machine contract violations (a Resume that takes no gated step, or
// more than one) surface as the same errors instead of hanging the gate.
// stepsBy[pid] is only ever written by pid's own goroutine during the run,
// so the contract checks are race-free.
func (r *Runner) RunMachines(machines []Machine) (*Result, error) {
	if len(machines) != r.n {
		return nil, fmt.Errorf("sched: got %d machines for %d processes", len(machines), r.n)
	}
	return r.Run(func(pid int) {
		m := machines[pid]
		alive := m.Resume()
		if r.stepsBy[pid] != 0 {
			panic(machineStartStepMsg(pid, ""))
		}
		for alive {
			before := r.stepsBy[pid]
			alive = m.Resume()
			switch after := r.stepsBy[pid]; {
			case after == before:
				panic(machineNoStepMsg(pid))
			case after > before+1:
				panic(machineSecondStepMsg(pid, ""))
			}
		}
	})
}

// Run starts body(pid) for pid in [0, n) and schedules their base-object
// steps until every process returns, the strategy halts the run, or the step
// budget is exhausted. It returns the execution result; err is non-nil only
// for a blown step budget, a panicking process body, or a misused runner.
func (r *Runner) Run(body func(pid int)) (*Result, error) {
	if r.started {
		return nil, fmt.Errorf("%w (Runner.Run called twice)", ErrReused)
	}
	r.started = true
	r.stepsBy = make([]int, r.n)

	for pid := 0; pid < r.n; pid++ {
		go func(pid int) {
			defer func() {
				if v := recover(); v != nil {
					if _, ok := v.(abortSignal); ok {
						r.ready <- event{pid: pid, done: true, aborted: true}
						return
					}
					r.ready <- event{pid: pid, done: true, panicked: true, panicVal: v}
					return
				}
				r.ready <- event{pid: pid, done: true}
			}()
			body(pid)
		}(pid)
	}

	waiting := make([]bool, r.n) // parked at the gate, indexed by pid
	numWaiting := 0
	outstanding := r.n // processes running (not parked at gate, not finished)
	numFinished := 0
	aborting := false
	var runErr error

	for numFinished < r.n {
		// Drain events until every live process is parked or finished.
		for outstanding > 0 {
			e := <-r.ready
			outstanding--
			if e.done {
				numFinished++
				if e.panicked {
					if runErr == nil {
						runErr = fmt.Errorf("sched: process %d panicked: %v", e.pid, e.panicVal)
					}
					aborting = true
				}
			} else {
				waiting[e.pid] = true
				numWaiting++
			}
		}
		if numWaiting == 0 {
			break // all finished
		}
		if aborting {
			for pid := 0; pid < r.n; pid++ {
				if waiting[pid] {
					waiting[pid] = false
					numWaiting--
					outstanding++
					r.resume[pid] <- grant{abort: true}
				}
			}
			continue
		}
		pick, halt, perr := r.core.pick(waiting)
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
		waiting[pick] = false
		numWaiting--
		outstanding++
		r.resume[pick] <- grant{}
	}

	r.closed = true
	steps := 0
	for _, s := range r.stepsBy {
		steps += s
	}
	return &Result{Steps: steps, StepsBy: r.stepsBy}, runErr
}
