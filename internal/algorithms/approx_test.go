package algorithms

import (
	"fmt"
	"testing"
	"testing/quick"

	"revisionist/internal/bounds"
	"revisionist/internal/proto"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
	"revisionist/internal/spec"
	"revisionist/internal/trace"
)

func TestAA2ParamValidation(t *testing.T) {
	if _, err := NewAA2(2, 0, 0.5); err == nil {
		t.Error("bad id accepted")
	}
	if _, err := NewAA2(0, 0, 1.5); err == nil {
		t.Error("eps >= 1 accepted")
	}
	if _, err := NewAA2(0, 0, 0); err == nil {
		t.Error("eps = 0 accepted")
	}
	if _, err := NewAA2(0, 2, 0.5); err == nil {
		t.Error("input outside [0,1] accepted")
	}
}

func TestAA2WaitFreeAndCorrect(t *testing.T) {
	for _, eps := range []float64{0.5, 0.25, 0.1, 0.01, 0.001} {
		for seed := int64(0); seed < 40; seed++ {
			inputs := [2]float64{0, 1}
			procs, m, err := NewApproxAgreement2(inputs, eps)
			if err != nil {
				t.Fatal(err)
			}
			res, _, rerr := proto.Run(procs, m, nil, sched.NewRandom(seed), sched.WithMaxSteps(100_000))
			if rerr != nil {
				t.Fatalf("eps=%g seed=%d: %v", eps, seed, rerr)
			}
			for pid, d := range res.Done {
				if !d {
					t.Fatalf("eps=%g seed=%d: process %d not done (protocol must be wait-free)", eps, seed, pid)
				}
			}
			task := spec.ApproxAgreement{Eps: eps}
			if verr := task.Validate([]spec.Value{0.0, 1.0}, res.DoneOutputs()); verr != nil {
				t.Fatalf("eps=%g seed=%d: %v", eps, seed, verr)
			}
		}
	}
}

func TestAA2ExhaustiveSchedules(t *testing.T) {
	// Every schedule of the eps = 0.25 instance (2 rounds, 5 ops each): both
	// processes always terminate with outputs within eps and inside [0, 1].
	const eps = 0.25
	factory := func(runner sched.Stepper) trace.System {
		procs, m, err := NewApproxAgreement2([2]float64{0, 1}, eps)
		if err != nil {
			panic(err)
		}
		res := proto.NewRunResult(2)
		snap := shmem.NewMWSnapshot("M", runner, m, nil)
		return trace.System{
			Machines: proto.Machines(procs, snap, res),
			Check: func(*sched.Result) error {
				outs := res.DoneOutputs()
				if len(outs) != 2 {
					// Truncated runs may have partial outputs; subset-closed.
					return (spec.ApproxAgreement{Eps: eps}).Validate([]spec.Value{0.0, 1.0}, outs)
				}
				return (spec.ApproxAgreement{Eps: eps}).Validate([]spec.Value{0.0, 1.0}, outs)
			},
		}
	}
	rep, err := trace.Explore(2, factory, trace.ExploreOpts{MaxDepth: 30, MaxRuns: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		v := rep.Violations[0]
		t.Fatalf("violation on schedule %v: %v", v.Schedule, v.Err)
	}
	if !rep.Exhausted {
		t.Logf("not exhausted within caps (%d runs)", rep.Runs)
	}
}

func TestAA2StepComplexityVsLowerBound(t *testing.T) {
	// The protocol takes 2R+1 = 2⌈log₂(1/eps)⌉+1 operations per process;
	// the Hoest–Shavit lower bound is L = ½·log₃(1/eps). Check both that our
	// run matches 2R+1 and that it respects the lower bound.
	for _, eps := range []float64{0.5, 0.1, 0.01, 1e-4, 1e-6} {
		procs, m, err := NewApproxAgreement2([2]float64{0, 1}, eps)
		if err != nil {
			t.Fatal(err)
		}
		res, _, rerr := proto.Run(procs, m, nil, sched.RoundRobin{N: 2}, sched.WithMaxSteps(1_000_000))
		if rerr != nil {
			t.Fatal(rerr)
		}
		want := 2*bounds.AA2Rounds(eps) + 1
		for pid, ops := range res.OpsBy {
			if ops != want {
				t.Fatalf("eps=%g: process %d took %d ops, want %d", eps, pid, ops, want)
			}
			if float64(ops) < bounds.ApproxAgreementStepLB(eps) {
				t.Fatalf("eps=%g: %d ops below the step lower bound %g — impossible",
					eps, ops, bounds.ApproxAgreementStepLB(eps))
			}
		}
	}
}

func TestAA2SoloOutputsOwnInput(t *testing.T) {
	procs, m, err := NewApproxAgreement2([2]float64{0.25, 1}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, _, rerr := proto.Run(procs, m, nil, sched.Solo{PID: 0, Fallback: sched.RoundRobin{N: 2}}, sched.WithMaxSteps(10_000))
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !res.Done[0] {
		t.Fatal("solo process not done")
	}
	if res.Outputs[0] != 0.25 {
		t.Fatalf("solo output %v, want own input 0.25", res.Outputs[0])
	}
}

func TestAA2ConvergenceProperty(t *testing.T) {
	// Property: for random inputs in [0,1] and random schedules, outputs are
	// within eps and within [min, max] of the inputs.
	prop := func(a, b uint16, seedRaw uint32, epsPick uint8) bool {
		in0 := float64(a) / 65535
		in1 := float64(b) / 65535
		eps := []float64{0.5, 0.25, 0.1, 0.05}[int(epsPick)%4]
		procs, m, err := NewApproxAgreement2([2]float64{in0, in1}, eps)
		if err != nil {
			return false
		}
		res, _, rerr := proto.Run(procs, m, nil, sched.NewRandom(int64(seedRaw)), sched.WithMaxSteps(100_000))
		if rerr != nil {
			return false
		}
		task := spec.ApproxAgreement{Eps: eps}
		return task.Validate([]spec.Value{in0, in1}, res.DoneOutputs()) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFirstValueAsStarvedAA(t *testing.T) {
	// The m = 1 protocol used as eps-approximate agreement: valid solo, but
	// some schedule splits the outputs by the full input spread (the
	// protocol is below the ⌊n/2⌋+1 bound of Corollary 34 and must fail).
	inputs := []proto.Value{0.0, 1.0}
	factory := func(runner sched.Stepper) trace.System {
		procs := []proto.Process{NewFirstValue(0, 0.0), NewFirstValue(0, 1.0)}
		res := proto.NewRunResult(2)
		snap := shmem.NewMWSnapshot("M", runner, 1, nil)
		return trace.System{
			Machines: proto.Machines(procs, snap, res),
			Check: func(*sched.Result) error {
				return (spec.ApproxAgreement{Eps: 0.5}).Validate(inputs, res.DoneOutputs())
			},
		}
	}
	rep, err := trace.Explore(2, factory, trace.ExploreOpts{MaxDepth: 12, MaxRuns: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("expected an eps-agreement violation for the 1-register protocol")
	}
}

func TestAA2RoundsAccessor(t *testing.T) {
	p, err := NewAA2(0, 0, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rounds() != 3 {
		t.Fatalf("rounds = %d, want 3", p.Rounds())
	}
}

func ExampleNewApproxAgreement2() {
	procs, m, _ := NewApproxAgreement2([2]float64{0, 1}, 0.25)
	res, _, _ := proto.Run(procs, m, nil, sched.RoundRobin{N: 2})
	fmt.Println(len(res.DoneOutputs()))
	// Output: 2
}
