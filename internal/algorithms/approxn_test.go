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

func aanInputs(n int) ([]float64, []spec.Value) {
	fs := make([]float64, n)
	vs := make([]spec.Value, n)
	for i := range fs {
		fs[i] = float64(i) / float64(max(n-1, 1))
		vs[i] = fs[i]
	}
	return fs, vs
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestAANParamValidation(t *testing.T) {
	if _, err := NewAAN(3, 3, 0, 0.5); err == nil {
		t.Error("id out of range accepted")
	}
	if _, err := NewAAN(0, 3, -0.5, 0.5); err == nil {
		t.Error("input out of range accepted")
	}
	if _, err := NewAAN(0, 3, 0, 1.5); err == nil {
		t.Error("eps out of range accepted")
	}
	if _, _, err := NewApproxAgreementN(nil, 0.5); err == nil {
		t.Error("empty inputs accepted")
	}
}

func TestAANWaitFreeAndCorrect(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		for _, eps := range []float64{0.5, 0.1, 0.01} {
			for seed := int64(0); seed < 20; seed++ {
				fs, vs := aanInputs(n)
				procs, m, err := NewApproxAgreementN(fs, eps)
				if err != nil {
					t.Fatal(err)
				}
				if m != n {
					t.Fatalf("m = %d, want n = %d", m, n)
				}
				res, _, rerr := proto.Run(procs, m, nil, sched.NewRandom(seed), sched.WithMaxSteps(500_000))
				if rerr != nil {
					t.Fatalf("n=%d eps=%g seed=%d: %v", n, eps, seed, rerr)
				}
				for pid, d := range res.Done {
					if !d {
						t.Fatalf("n=%d eps=%g seed=%d: process %d not done (must be wait-free)", n, eps, seed, pid)
					}
				}
				if verr := (spec.ApproxAgreement{Eps: eps}).Validate(vs, res.DoneOutputs()); verr != nil {
					t.Fatalf("n=%d eps=%g seed=%d: %v", n, eps, seed, verr)
				}
			}
		}
	}
}

func TestAANStepBound(t *testing.T) {
	// Wait-freedom with an explicit bound: at most 2T+1 operations per
	// process, T = ⌈log₂(1/eps)⌉, under every tested adversary.
	strategies := []sched.Strategy{
		sched.RoundRobin{N: 4}, sched.Lowest{}, sched.Highest{},
		sched.Alternator{Burst: 7}, sched.NewRandom(11),
	}
	for _, eps := range []float64{0.25, 0.01} {
		T := bounds.AA2Rounds(eps)
		for si, strat := range strategies {
			fs, _ := aanInputs(4)
			procs, m, err := NewApproxAgreementN(fs, eps)
			if err != nil {
				t.Fatal(err)
			}
			res, _, rerr := proto.Run(procs, m, nil, strat, sched.WithMaxSteps(500_000))
			if rerr != nil {
				t.Fatalf("eps=%g strat=%d: %v", eps, si, rerr)
			}
			for pid, ops := range res.OpsBy {
				if ops > 2*T+1 {
					t.Fatalf("eps=%g strat=%d: process %d took %d ops > 2T+1 = %d", eps, si, pid, ops, 2*T+1)
				}
			}
		}
	}
}

func TestAANCrashTolerance(t *testing.T) {
	// Survivors finish and stay within eps even when others crash mid-round.
	const n = 4
	eps := 0.1
	fs, vs := aanInputs(n)
	for crash := 0; crash < n; crash++ {
		for _, at := range []int{0, 2, 5, 9} {
			procs, m, err := NewApproxAgreementN(fs, eps)
			if err != nil {
				t.Fatal(err)
			}
			res, _, rerr := proto.Run(procs, m, nil,
				sched.Crash{Crashed: map[int]int{crash: at}, Inner: sched.RoundRobin{N: n}},
				sched.WithMaxSteps(500_000))
			if rerr != nil {
				t.Fatalf("crash=%d at=%d: %v", crash, at, rerr)
			}
			if verr := (spec.ApproxAgreement{Eps: eps}).Validate(vs, res.DoneOutputs()); verr != nil {
				t.Fatalf("crash=%d at=%d: %v", crash, at, verr)
			}
		}
	}
}

func TestAANExhaustiveTiny(t *testing.T) {
	// All schedules of a 2-process eps=0.25 instance.
	const eps = 0.25
	factory := func(runner sched.Stepper) trace.System {
		procs, m, err := NewApproxAgreementN([]float64{0, 1}, eps)
		if err != nil {
			panic(err)
		}
		res := proto.NewRunResult(2)
		snap := shmem.NewMWSnapshot("M", runner, m, nil)
		return trace.System{
			Machines: proto.Machines(procs, snap, res),
			Check: func(*sched.Result) error {
				return (spec.ApproxAgreement{Eps: eps}).Validate([]spec.Value{0.0, 1.0}, res.DoneOutputs())
			},
		}
	}
	rep, err := trace.Explore(2, factory, trace.ExploreOpts{MaxDepth: 26, MaxRuns: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		v := rep.Violations[0]
		t.Fatalf("violation on schedule %v: %v", v.Schedule, v.Err)
	}
	t.Logf("explored %d schedules (exhausted=%v)", rep.Runs, rep.Exhausted)
}

func TestAANSoloOutputsOwnInput(t *testing.T) {
	fs := []float64{0.5, 1}
	procs, m, err := NewApproxAgreementN(fs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, _, rerr := proto.Run(procs, m, nil, sched.Solo{PID: 0, Fallback: sched.RoundRobin{N: 2}}, sched.WithMaxSteps(10_000))
	if rerr != nil {
		t.Fatal(rerr)
	}
	if res.Outputs[0] != 0.5 {
		t.Fatalf("solo output %v, want 0.5", res.Outputs[0])
	}
}

func TestAANConvergenceProperty(t *testing.T) {
	prop := func(raw []uint16, seedRaw uint32, epsPick uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 6 {
			raw = raw[:6]
		}
		fs := make([]float64, len(raw))
		vs := make([]spec.Value, len(raw))
		for i, r := range raw {
			fs[i] = float64(r) / 65535
			vs[i] = fs[i]
		}
		eps := []float64{0.5, 0.25, 0.1}[int(epsPick)%3]
		procs, m, err := NewApproxAgreementN(fs, eps)
		if err != nil {
			return false
		}
		res, _, rerr := proto.Run(procs, m, nil, sched.NewRandom(int64(seedRaw)), sched.WithMaxSteps(500_000))
		if rerr != nil {
			return false
		}
		return (spec.ApproxAgreement{Eps: eps}).Validate(vs, res.DoneOutputs()) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func ExampleNewApproxAgreementN() {
	procs, m, _ := NewApproxAgreementN([]float64{0, 0.5, 1}, 0.25)
	res, _, _ := proto.Run(procs, m, nil, sched.RoundRobin{N: 3})
	fmt.Println(len(res.DoneOutputs()))
	// Output: 3
}
