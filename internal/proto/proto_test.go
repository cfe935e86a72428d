package proto

import (
	"errors"
	"testing"

	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// scripted is a minimal deterministic Process for testing the runner: it
// performs `writes` updates (to component comp, values 1..writes) with the
// mandatory interleaved scans, then outputs the last view it saw of comp.
type scripted struct {
	comp   int
	writes int

	step     int
	poised   Op
	started  bool
	lastSeen Value
	done     bool
}

func newScripted(comp, writes int) *scripted {
	return &scripted{comp: comp, writes: writes}
}

func (s *scripted) NextOp() Op {
	if s.done {
		return Op{Kind: OpOutput, Val: s.lastSeen}
	}
	if !s.started || s.poised.Kind == OpScan {
		return Op{Kind: OpScan}
	}
	return s.poised
}

func (s *scripted) ApplyScan(view []Value) {
	s.lastSeen = view[s.comp]
	if !s.started {
		s.started = true
	}
	if s.step >= s.writes {
		s.done = true
		return
	}
	s.step++
	s.poised = Op{Kind: OpUpdate, Comp: s.comp, Val: s.step}
}

func (s *scripted) ApplyUpdate() {
	s.poised = Op{Kind: OpScan}
}

func (s *scripted) Clone() Process {
	c := *s
	return &c
}

func TestRunDrivesProcessesToCompletion(t *testing.T) {
	procs := []Process{newScripted(0, 2), newScripted(1, 3)}
	res, sres, err := Run(procs, 2, nil, sched.RoundRobin{N: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Done[0] || !res.Done[1] {
		t.Fatalf("done = %v", res.Done)
	}
	// Each process performed 2w+1 M-operations (w updates + w+1 scans).
	if res.OpsBy[0] != 5 || res.OpsBy[1] != 7 {
		t.Fatalf("ops = %v, want [5 7]", res.OpsBy)
	}
	if sres.Steps != 12 {
		t.Fatalf("scheduler steps = %d, want 12", sres.Steps)
	}
	// Outputs are the final values of the components each process owns here.
	if res.Outputs[0] != 2 || res.Outputs[1] != 3 {
		t.Fatalf("outputs = %v", res.Outputs)
	}
}

func TestDoneOutputsFiltersUnfinished(t *testing.T) {
	r := &RunResult{
		Outputs: []Value{"a", "b", "c"},
		Done:    []bool{true, false, true},
	}
	outs := r.DoneOutputs()
	if len(outs) != 2 || outs[0] != "a" || outs[1] != "c" {
		t.Fatalf("outs = %v", outs)
	}
}

// badAlternator violates Assumption 1 by scanning twice in a row.
type badAlternator struct{ scans int }

func (b *badAlternator) NextOp() Op {
	if b.scans >= 2 {
		return Op{Kind: OpOutput, Val: nil}
	}
	return Op{Kind: OpScan}
}
func (b *badAlternator) ApplyScan([]Value) { b.scans++ }
func (b *badAlternator) ApplyUpdate()      {}
func (b *badAlternator) Clone() Process    { c := *b; return &c }

func TestAlternationViolationDetected(t *testing.T) {
	_, _, err := Run([]Process{&badAlternator{}}, 1, nil, sched.RoundRobin{N: 1})
	if err == nil {
		t.Fatal("scan-after-scan accepted")
	}
}

func TestRunSoloAppliesAllowedUpdates(t *testing.T) {
	p := newScripted(0, 3)
	mem := make([]Value, 1)
	stop, out, err := RunSolo(p, mem, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if stop != SoloOutput || out != 3 {
		t.Fatalf("stop=%v out=%v, want output 3", stop, out)
	}
	if mem[0] != 3 {
		t.Fatalf("mem = %v", mem)
	}
}

func TestRunSoloStopsAtForbiddenComponent(t *testing.T) {
	p := newScripted(1, 2)
	mem := make([]Value, 2)
	stop, _, err := RunSolo(p, mem, func(comp int) bool { return comp != 1 }, 100)
	if err != nil {
		t.Fatal(err)
	}
	if stop != SoloPoisedUpdate {
		t.Fatalf("stop = %v, want SoloPoisedUpdate", stop)
	}
	// The process is left poised at its forbidden update.
	op := p.NextOp()
	if op.Kind != OpUpdate || op.Comp != 1 {
		t.Fatalf("poised op = %+v", op)
	}
	if mem[1] != nil {
		t.Fatal("forbidden update applied")
	}
}

func TestRunSoloBudgetExceeded(t *testing.T) {
	p := newScripted(0, 1000)
	mem := make([]Value, 1)
	_, _, err := RunSolo(p, mem, nil, 10)
	if err == nil {
		t.Fatal("budget exceeded without error")
	}
}

// spinner never outputs: used to test the step budget path of Run.
type spinner struct{ poisedScan bool }

func (s *spinner) NextOp() Op {
	if s.poisedScan {
		return Op{Kind: OpScan}
	}
	return Op{Kind: OpUpdate, Comp: 0, Val: 1}
}
func (s *spinner) ApplyScan([]Value) { s.poisedScan = false }
func (s *spinner) ApplyUpdate()      { s.poisedScan = true }
func (s *spinner) Clone() Process    { c := *s; return &c }

func TestRunStepBudget(t *testing.T) {
	_, _, err := Run([]Process{&spinner{poisedScan: true}}, 1, nil,
		sched.RoundRobin{N: 1}, sched.WithMaxSteps(50))
	if !errors.Is(err, sched.ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
}

func TestCloneAll(t *testing.T) {
	procs := []Process{newScripted(0, 1), newScripted(1, 2)}
	clones := CloneAll(procs)
	clones[0].ApplyScan(make([]Value, 2))
	if procs[0].(*scripted).started {
		t.Fatal("clone shares state")
	}
}

func TestRunOnSnapshotWithRegisterBuiltSubstrate(t *testing.T) {
	// The same protocol runs over the register-built multi-writer snapshot:
	// the §2 equivalence in executable form. The machines step the
	// snapshot's cursors, one register read or write per scheduler step.
	for seed := int64(0); seed < 10; seed++ {
		runner := sched.NewSeqEngine(2, sched.NewRandom(seed), sched.WithMaxSteps(1<<22))
		snap := shmem.NewRegMWSnapshot("M", runner, 2, 2, nil)
		procs := []Process{newScripted(0, 2), newScripted(1, 2)}
		res := NewRunResult(len(procs))
		_, err := runner.RunMachines(Machines(procs, snap, res))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Done[0] || !res.Done[1] {
			t.Fatalf("seed %d: done = %v", seed, res.Done)
		}
		if res.Outputs[0] != 2 || res.Outputs[1] != 2 {
			t.Fatalf("seed %d: outputs = %v", seed, res.Outputs)
		}
	}
}

func TestOpKindString(t *testing.T) {
	if OpScan.String() != "scan" || OpUpdate.String() != "update" || OpOutput.String() != "output" {
		t.Fatal("OpKind strings wrong")
	}
	if OpKind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}
