package proto

import (
	"fmt"

	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// Run executes the protocol given by procs over a fresh atomic m-component
// multi-writer snapshot under the given strategy, dispatching the processes
// as step machines on the sequential engine. initial is the initial
// component value (the paper's ⊥ is nil). It returns the protocol-level
// result and the scheduler-level result.
func Run(procs []Process, m int, initial Value, strat sched.Strategy, opts ...sched.Option) (*RunResult, *sched.Result, error) {
	n := len(procs)
	res := NewRunResult(n)
	eng := sched.NewSeqEngine(n, strat, opts...)
	snap := shmem.NewMWSnapshot("M", eng, m, initial)
	sres, rerr := eng.RunMachines(Machines(procs, snap, res))
	return res, sres, rerr
}

// SoloStop tells how a local solo simulation ended.
type SoloStop int

// SoloStop values.
const (
	// SoloPoisedUpdate: the process is poised to update a component for
	// which allowed() is false (the stopping condition of Algorithm 6,
	// line 13).
	SoloPoisedUpdate SoloStop = iota + 1
	// SoloOutput: the process output a value.
	SoloOutput
)

// RunSolo locally simulates a solo execution of p against the private memory
// mem (§4.1: "locally simulate pi,r assuming the contents of M are V").
//
// Scans are answered from mem; updates to components with allowed(comp) true
// are applied to mem; the run stops as soon as p is poised to update a
// component with allowed(comp) false (without applying it), or outputs. If
// allowed is nil every update is applied, which realizes the "terminating
// solo execution" of Algorithm 7. maxOps bounds the local steps: exceeding
// it means the protocol is not obstruction-free and is reported as an error.
//
// p and mem are mutated in place; callers own both.
func RunSolo(p Process, mem []Value, allowed func(comp int) bool, maxOps int) (SoloStop, Value, error) {
	stop, out, _, err := RunSoloTrace(p, mem, allowed, maxOps)
	return stop, out, err
}

// RunSoloTrace is RunSolo but additionally returns the sequence of hidden
// steps taken: the scans and the applied updates, in order, with a final
// OpOutput entry when the process output. The revisionist simulation records
// this trace so the simulated execution can be reconstructed and re-validated
// offline (Lemma 26).
func RunSoloTrace(p Process, mem []Value, allowed func(comp int) bool, maxOps int) (SoloStop, Value, []Op, error) {
	var steps []Op
	for ops := 0; ops < maxOps; ops++ {
		op := p.NextOp()
		switch op.Kind {
		case OpScan:
			view := make([]Value, len(mem))
			copy(view, mem)
			p.ApplyScan(view)
			steps = append(steps, Op{Kind: OpScan})
		case OpUpdate:
			if allowed != nil && !allowed(op.Comp) {
				return SoloPoisedUpdate, nil, steps, nil
			}
			if op.Comp < 0 || op.Comp >= len(mem) {
				return 0, nil, steps, fmt.Errorf("proto: solo update to out-of-range component %d", op.Comp)
			}
			mem[op.Comp] = op.Val
			p.ApplyUpdate()
			steps = append(steps, op)
		case OpOutput:
			steps = append(steps, op)
			return SoloOutput, op.Val, steps, nil
		default:
			return 0, nil, steps, fmt.Errorf("proto: solo run hit invalid op kind %v", op.Kind)
		}
	}
	return 0, nil, steps, fmt.Errorf("proto: solo run did not terminate within %d operations (protocol not obstruction-free?)", maxOps)
}

// CloneAll deep-copies a slice of processes.
func CloneAll(procs []Process) []Process {
	out := make([]Process, len(procs))
	for i, p := range procs {
		out[i] = p.Clone()
	}
	return out
}
