package algorithms

import (
	"errors"
	"fmt"
	"testing"

	"revisionist/internal/proto"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
	"revisionist/internal/spec"
	"revisionist/internal/trace"
)

// runProtocol runs procs on a fresh m-component snapshot under strat and
// validates outputs of terminated processes against task.
func runProtocol(t *testing.T, procs []proto.Process, m int, inputs []proto.Value, task spec.Task, strat sched.Strategy, wantAllDone bool) *proto.RunResult {
	t.Helper()
	res, _, err := proto.Run(procs, m, nil, strat, sched.WithMaxSteps(200_000))
	if err != nil && !errors.Is(err, sched.ErrMaxSteps) {
		t.Fatalf("Run: %v", err)
	}
	if wantAllDone {
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for pid, d := range res.Done {
			if !d {
				t.Fatalf("process %d did not terminate", pid)
			}
		}
	}
	if verr := task.Validate(inputs, res.DoneOutputs()); verr != nil {
		t.Fatalf("task violated: %v", verr)
	}
	return res
}

func intInputs(n int) []proto.Value {
	in := make([]proto.Value, n)
	for i := range in {
		in[i] = 100 + i
	}
	return in
}

func TestConsensusSoloTerminates(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for solo := 0; solo < n; solo++ {
			inputs := intInputs(n)
			procs, m, err := NewConsensus(n, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if m != n {
				t.Fatalf("consensus uses %d components, want %d", m, n)
			}
			res, _, rerr := proto.Run(procs, m, nil, sched.Solo{PID: solo, Fallback: sched.RoundRobin{N: n}}, sched.WithMaxSteps(100_000))
			if rerr != nil {
				t.Fatalf("n=%d solo=%d: %v", n, solo, rerr)
			}
			if !res.Done[solo] {
				t.Fatalf("n=%d: solo process %d did not terminate (not obstruction-free)", n, solo)
			}
			if res.Outputs[solo] != inputs[solo] {
				t.Fatalf("solo run must decide own input: got %v want %v", res.Outputs[solo], inputs[solo])
			}
		}
	}
}

func TestConsensusSafetyRandomSchedules(t *testing.T) {
	for n := 2; n <= 5; n++ {
		for seed := int64(0); seed < 60; seed++ {
			inputs := intInputs(n)
			procs, m, err := NewConsensus(n, inputs)
			if err != nil {
				t.Fatal(err)
			}
			runProtocol(t, procs, m, inputs, spec.Consensus{}, sched.NewRandom(seed), false)
		}
	}
}

func TestConsensusTerminatesUnderRandomSchedules(t *testing.T) {
	// Random schedules are fair with probability 1; Paxos usually converges.
	// We do not require termination (only obstruction-freedom is guaranteed)
	// but we do require that whatever terminated agreed, and we track that at
	// least some run completes fully.
	full := 0
	for seed := int64(0); seed < 30; seed++ {
		inputs := intInputs(3)
		procs, m, err := NewConsensus(3, inputs)
		if err != nil {
			t.Fatal(err)
		}
		res := runProtocol(t, procs, m, inputs, spec.Consensus{}, sched.NewRandom(seed), false)
		all := true
		for _, d := range res.Done {
			all = all && d
		}
		if all {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no random schedule completed consensus; liveness is suspicious")
	}
}

func TestConsensusSafetyExhaustiveTwoProcs(t *testing.T) {
	// Bounded exhaustive model check: every schedule of 2-process Paxos up to
	// depth 24 keeps agreement+validity (truncated runs check the outputs
	// produced so far; colorless specs are subset-closed).
	inputs := []proto.Value{0, 1}
	factory := func(runner sched.Stepper) trace.System {
		procs, m, err := NewConsensus(2, []proto.Value{0, 1})
		if err != nil {
			panic(err)
		}
		res := proto.NewRunResult(2)
		snap := shmem.NewMWSnapshot("M", runner, m, nil)
		return trace.System{
			Machines: proto.Machines(procs, snap, res),
			Check: func(*sched.Result) error {
				return spec.Consensus{}.Validate(inputs, res.DoneOutputs())
			},
		}
	}
	rep, err := trace.Explore(2, factory, trace.ExploreOpts{MaxDepth: 24, MaxRuns: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		v := rep.Violations[0]
		t.Fatalf("agreement violated on schedule %v: %v", v.Schedule, v.Err)
	}
	t.Logf("explored %d schedules (%d truncated, exhausted=%v)", rep.Runs, rep.Truncated, rep.Exhausted)
}

func TestKSetAgreementProtocol(t *testing.T) {
	cases := []struct{ n, k int }{{3, 2}, {4, 2}, {5, 3}, {6, 5}, {8, 4}, {9, 8}}
	for _, c := range cases {
		t.Run(fmt.Sprintf("n%d_k%d", c.n, c.k), func(t *testing.T) {
			inputs := intInputs(c.n)
			procs, m, err := NewKSetAgreement(c.n, c.k, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.n - c.k + 1; m != want {
				t.Fatalf("m = %d, want n-k+1 = %d", m, want)
			}
			for seed := int64(0); seed < 25; seed++ {
				procsCopy := proto.CloneAll(procs)
				runProtocol(t, procsCopy, m, inputs, spec.KSetAgreement{K: c.k}, sched.NewRandom(seed), false)
			}
			// Obstruction-freedom for each process.
			for solo := 0; solo < c.n; solo++ {
				procsCopy := proto.CloneAll(procs)
				res, _, rerr := proto.Run(procsCopy, m, nil, sched.Solo{PID: solo, Fallback: sched.RoundRobin{N: c.n}}, sched.WithMaxSteps(100_000))
				if rerr != nil {
					t.Fatalf("solo %d: %v", solo, rerr)
				}
				if !res.Done[solo] {
					t.Fatalf("solo process %d did not terminate", solo)
				}
			}
		})
	}
}

func TestKSetParamsRejected(t *testing.T) {
	if _, _, err := NewKSetAgreement(3, 3, intInputs(3)); err == nil {
		t.Fatal("k = n accepted")
	}
	if _, _, err := NewKSetAgreement(3, 0, intInputs(3)); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, _, err := NewKSetAgreement(3, 2, intInputs(2)); err == nil {
		t.Fatal("wrong input count accepted")
	}
	if _, _, err := NewLaneKSetAgreement(6, 3, 4, intInputs(6)); err == nil {
		t.Fatal("x > k accepted")
	}
}

func TestLaneKSetAgreement(t *testing.T) {
	cases := []struct{ n, k, x int }{{4, 2, 2}, {6, 3, 2}, {8, 5, 3}, {9, 4, 2}, {10, 9, 4}}
	for _, c := range cases {
		t.Run(fmt.Sprintf("n%d_k%d_x%d", c.n, c.k, c.x), func(t *testing.T) {
			inputs := intInputs(c.n)
			procs, m, err := NewLaneKSetAgreement(c.n, c.k, c.x, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.n - c.k + c.x; m != want {
				t.Fatalf("m = %d, want n-k+x = %d", m, want)
			}
			for seed := int64(0); seed < 20; seed++ {
				procsCopy := proto.CloneAll(procs)
				runProtocol(t, procsCopy, m, inputs, spec.KSetAgreement{K: c.k}, sched.NewRandom(seed), false)
			}
			for solo := 0; solo < c.n; solo++ {
				procsCopy := proto.CloneAll(procs)
				res, _, rerr := proto.Run(procsCopy, m, nil, sched.Solo{PID: solo, Fallback: sched.RoundRobin{N: c.n}}, sched.WithMaxSteps(100_000))
				if rerr != nil {
					t.Fatalf("solo %d: %v", solo, rerr)
				}
				if !res.Done[solo] {
					t.Fatalf("solo process %d did not terminate", solo)
				}
			}
		})
	}
}

func TestFirstValueWaitFree(t *testing.T) {
	const n = 4
	inputs := intInputs(n)
	for seed := int64(0); seed < 40; seed++ {
		procs := make([]proto.Process, n)
		for i := range procs {
			procs[i] = NewFirstValue(0, inputs[i])
		}
		res := runProtocol(t, procs, 1, inputs, spec.Trivial{}, sched.NewRandom(seed), true)
		for pid, ops := range res.OpsBy {
			if ops > 3 {
				t.Fatalf("first-value process %d took %d M-operations, want <= 3", pid, ops)
			}
		}
	}
}

func TestFirstValueViolatesConsensusSomewhere(t *testing.T) {
	// The starved "consensus" (m = 1 < n = lower bound) must admit an
	// agreement violation; exhaustive search finds one.
	inputs := []proto.Value{0, 1}
	factory := func(runner sched.Stepper) trace.System {
		procs := []proto.Process{NewFirstValue(0, 0), NewFirstValue(0, 1)}
		res := proto.NewRunResult(2)
		snap := shmem.NewMWSnapshot("M", runner, 1, nil)
		return trace.System{
			Machines: proto.Machines(procs, snap, res),
			Check: func(*sched.Result) error {
				return spec.Consensus{}.Validate(inputs, res.DoneOutputs())
			},
		}
	}
	rep, err := trace.Explore(2, factory, trace.ExploreOpts{MaxDepth: 12, MaxRuns: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("no agreement violation found for the 1-register protocol; expected one (Corollary 33 says m >= 2)")
	}
	t.Logf("violating schedule: %v (%v)", rep.Violations[0].Schedule, rep.Violations[0].Err)
}

func TestSingletonOutputsOwnInput(t *testing.T) {
	p := NewSingleton(7)
	if op := p.NextOp(); op.Kind != proto.OpScan {
		t.Fatalf("first op = %v, want scan", op.Kind)
	}
	p.ApplyScan(nil)
	op := p.NextOp()
	if op.Kind != proto.OpOutput || op.Val != 7 {
		t.Fatalf("op = %+v, want output 7", op)
	}
}

func TestPaxosCloneIsIndependent(t *testing.T) {
	p := NewPaxos(0, []int{0, 1}, "v")
	q := p.Clone().(*Paxos)
	p.ApplyScan(make([]proto.Value, 2)) // advances p to write1
	if q.phase != paxInit {
		t.Fatal("clone shares state with original")
	}
}

func TestConsensusValidityExhaustiveSameInputs(t *testing.T) {
	// With identical inputs every decided value must be that input, under
	// every schedule (bounded).
	factory := func(runner sched.Stepper) trace.System {
		procs, m, err := NewConsensus(2, []proto.Value{5, 5})
		if err != nil {
			panic(err)
		}
		res := proto.NewRunResult(2)
		snap := shmem.NewMWSnapshot("M", runner, m, nil)
		return trace.System{
			Machines: proto.Machines(procs, snap, res),
			Check: func(*sched.Result) error {
				for pid, d := range res.Done {
					if d && res.Outputs[pid] != 5 {
						return fmt.Errorf("pid %d output %v, want 5", pid, res.Outputs[pid])
					}
				}
				return nil
			},
		}
	}
	rep, err := trace.Explore(2, factory, trace.ExploreOpts{MaxDepth: 20, MaxRuns: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("validity violated: %+v", rep.Violations[0])
	}
}

// laneMembers recomputes the lane partition of NewLaneKSetAgreement.
func laneMembers(n, k, x int) [][]int {
	big := n - (k - x)
	base := k - x
	rem := big % x
	var lanes [][]int
	for lane := 0; lane < x; lane++ {
		size := big / x
		if lane < rem {
			size++
		}
		if size == 0 {
			continue
		}
		members := make([]int, size)
		for i := range members {
			members[i] = base + i
		}
		lanes = append(lanes, members)
		base += size
	}
	return lanes
}

func TestLaneKSetXConcurrencyForSeparatedSets(t *testing.T) {
	// The lane protocol's documented guarantee: any set of processes that
	// occupies pairwise distinct lanes terminates when it runs alone, even
	// with all of them taking steps concurrently (each lane is then solo).
	cases := []struct{ n, k, x int }{{6, 3, 2}, {8, 5, 3}, {9, 4, 2}}
	for _, c := range cases {
		inputs := intInputs(c.n)
		lanes := laneMembers(c.n, c.k, c.x)
		// One representative per lane (rotate which member).
		for rot := 0; rot < 2; rot++ {
			var pids []int
			for _, members := range lanes {
				pids = append(pids, members[rot%len(members)])
			}
			procs, m, err := NewLaneKSetAgreement(c.n, c.k, c.x, inputs)
			if err != nil {
				t.Fatal(err)
			}
			res, _, rerr := proto.Run(procs, m, nil,
				sched.Subset{PIDs: pids, Fallback: sched.RoundRobin{N: c.n}}, sched.WithMaxSteps(200_000))
			if rerr != nil {
				t.Fatalf("n=%d k=%d x=%d pids=%v: %v", c.n, c.k, c.x, pids, rerr)
			}
			for _, pid := range pids {
				if !res.Done[pid] {
					t.Fatalf("n=%d k=%d x=%d: lane-separated process %d did not terminate", c.n, c.k, c.x, pid)
				}
			}
			if verr := (spec.KSetAgreement{K: c.k}).Validate(inputs, res.DoneOutputs()); verr != nil {
				t.Fatalf("n=%d k=%d x=%d: %v", c.n, c.k, c.x, verr)
			}
		}
	}
}

func TestLaneKSetSameLaneMayLivelockButStaysSafe(t *testing.T) {
	// Two processes in the same lane under an adversarial alternator may
	// livelock (the substitution's documented limitation: not fully x-OF),
	// but k-set safety must hold in every run, truncated or not.
	const n, k, x = 6, 3, 2
	inputs := intInputs(n)
	lanes := laneMembers(n, k, x)
	if len(lanes[0]) < 2 {
		t.Skip("first lane too small")
	}
	pids := lanes[0][:2]
	procs, m, err := NewLaneKSetAgreement(n, k, x, inputs)
	if err != nil {
		t.Fatal(err)
	}
	res, _, rerr := proto.Run(procs, m, nil,
		sched.Subset{PIDs: pids, Fallback: sched.RoundRobin{N: n}}, sched.WithMaxSteps(5_000))
	if rerr != nil && !errors.Is(rerr, sched.ErrMaxSteps) {
		t.Fatal(rerr)
	}
	if verr := (spec.KSetAgreement{K: k}).Validate(inputs, res.DoneOutputs()); verr != nil {
		t.Fatalf("safety violated: %v", verr)
	}
}
