package proto

import (
	"testing"

	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// TestMachineValidatesAlternation: a process breaking Assumption 1 surfaces
// as a run error.
func TestMachineValidatesAlternation(t *testing.T) {
	res := NewRunResult(1)
	eng := sched.NewSeqEngine(1, sched.RoundRobin{N: 1})
	snap := shmem.NewMWSnapshot("M", eng, 1, nil)
	_, err := eng.RunMachines(Machines([]Process{&badAlternator{}}, snap, res))
	if err == nil {
		t.Fatal("machine accepted a scan-after-scan protocol")
	}
}

// TestMachineZeroStepProcess: a process that outputs immediately takes no
// steps and finishes.
func TestMachineZeroStepProcess(t *testing.T) {
	res := NewRunResult(1)
	eng := sched.NewSeqEngine(1, sched.RoundRobin{N: 1})
	snap := shmem.NewMWSnapshot("M", eng, 1, nil)
	sres, err := eng.RunMachines(Machines([]Process{&instantOutput{v: 9}}, snap, res))
	if err != nil {
		t.Fatal(err)
	}
	if sres.Steps != 0 || !res.Done[0] || res.Outputs[0] != 9 {
		t.Fatalf("steps=%d done=%v out=%v", sres.Steps, res.Done[0], res.Outputs[0])
	}
}

// instantOutput outputs without touching the snapshot.
type instantOutput struct{ v Value }

func (p *instantOutput) NextOp() Op        { return Op{Kind: OpOutput, Val: p.v} }
func (p *instantOutput) ApplyScan([]Value) {}
func (p *instantOutput) ApplyUpdate()      {}
func (p *instantOutput) Clone() Process    { return &instantOutput{v: p.v} }
