package proto

import (
	"fmt"
	"strings"
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

// TestFingerprintRejectsUnknownProcess: a machine whose process has no
// fingerprint encoding panics, naming the process type, instead of hashing
// a rendering of it.
func TestFingerprintRejectsUnknownProcess(t *testing.T) {
	snap := shmem.NewMWSnapshot("M", shmem.Free{}, 1, nil)
	m := Machines([]Process{&instantOutput{v: 9}}, snap, NewRunResult(1))[0]
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "*proto.instantOutput") {
			t.Fatalf("recovered %v, want a panic naming the process type", r)
		}
	}()
	var fp sched.FP
	m.(sched.Fingerprinter).AppendFingerprint(&fp, nil)
}
