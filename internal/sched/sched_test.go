package sched

import (
	"errors"
	"fmt"
	"testing"
)

func TestRoundRobinCompletes(t *testing.T) {
	const n, steps = 4, 10
	r := NewSeqEngine(n, RoundRobin{N: n})
	res, err := r.RunMachines(counterMachines(r, r.n, steps))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Steps != n*steps {
		t.Fatalf("steps = %d, want %d", res.Steps, n*steps)
	}
	for pid, c := range res.StepsBy {
		if c != steps {
			t.Errorf("pid %d took %d steps, want %d", pid, c, steps)
		}
		if !res.Finished[pid] {
			t.Errorf("pid %d not finished", pid)
		}
	}
}

func TestTraceIsSequentialAndComplete(t *testing.T) {
	const n, steps = 3, 5
	r := NewSeqEngine(n, RoundRobin{N: n})
	res, err := r.RunMachines(counterMachines(r, r.n, steps))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, rec := range res.Trace {
		if rec.Seq != i {
			t.Fatalf("trace[%d].Seq = %d", i, rec.Seq)
		}
		if rec.PID < 0 || rec.PID >= n {
			t.Fatalf("trace[%d].PID = %d", i, rec.PID)
		}
	}
}

func TestRandomIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []StepRecord {
		r := NewSeqEngine(3, NewRandom(seed))
		res, err := r.RunMachines(counterMachines(r, r.n, 8))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].PID != b[i].PID {
			t.Fatalf("trace diverges at %d: %d vs %d", i, a[i].PID, b[i].PID)
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		diff := false
		for i := range a {
			if a[i].PID != c[i].PID {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Log("seeds 42 and 43 produced identical traces (possible but unlikely)")
	}
}

func TestMaxStepsAborts(t *testing.T) {
	r := NewSeqEngine(2, RoundRobin{N: 2}, WithMaxSteps(7))
	res, err := r.RunMachines(counterMachines(r, 2, -1))
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
	if res.Steps != 7 {
		t.Fatalf("steps = %d, want 7", res.Steps)
	}
	for pid, fin := range res.Finished {
		if fin {
			t.Errorf("pid %d reported finished after abort", pid)
		}
	}
}

func TestSoloStrategyRunsOnlyTarget(t *testing.T) {
	const n = 3
	r := NewSeqEngine(n, Solo{PID: 1, After: 0, Fallback: RoundRobin{N: n}})
	res, err := r.RunMachines(counterMachines(r, r.n, 4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Halted {
		t.Fatal("run should halt once pid 1 finishes")
	}
	for _, rec := range res.Trace {
		if rec.PID != 1 {
			t.Fatalf("step by pid %d under solo(1)", rec.PID)
		}
	}
	if !res.Finished[1] || res.Finished[0] || res.Finished[2] {
		t.Fatalf("finished = %v, want only pid 1", res.Finished)
	}
}

func TestSubsetStrategy(t *testing.T) {
	const n = 4
	r := NewSeqEngine(n, Subset{PIDs: []int{1, 3}, Fallback: RoundRobin{N: n}})
	res, err := r.RunMachines(counterMachines(r, r.n, 6))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, rec := range res.Trace {
		if rec.PID != 1 && rec.PID != 3 {
			t.Fatalf("step by pid %d outside subset", rec.PID)
		}
	}
	if !res.Finished[1] || !res.Finished[3] {
		t.Fatalf("subset processes should finish: %v", res.Finished)
	}
}

func TestCrashStrategy(t *testing.T) {
	const n = 3
	r := NewSeqEngine(n, Crash{Crashed: map[int]int{0: 0}, Inner: RoundRobin{N: n}})
	res, err := r.RunMachines(counterMachines(r, r.n, 5))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.StepsBy[0] != 0 {
		t.Fatalf("crashed pid 0 took %d steps", res.StepsBy[0])
	}
	if !res.Finished[1] || !res.Finished[2] {
		t.Fatalf("live processes should finish: %v", res.Finished)
	}
}

func TestReplayReproducesTrace(t *testing.T) {
	r1 := NewSeqEngine(3, NewRandom(7))
	res1, err := r1.RunMachines(counterMachines(r1, r1.n, 6))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	choices := make([]int, len(res1.Trace))
	for i, rec := range res1.Trace {
		choices[i] = rec.PID
	}
	r2 := NewSeqEngine(3, Replay{Choices: choices})
	res2, err := r2.RunMachines(counterMachines(r2, r2.n, 6))
	if err != nil {
		t.Fatalf("replay Run: %v", err)
	}
	if len(res2.Trace) != len(res1.Trace) {
		t.Fatalf("replay length %d, want %d", len(res2.Trace), len(res1.Trace))
	}
	for i := range res1.Trace {
		if res1.Trace[i].PID != res2.Trace[i].PID {
			t.Fatalf("replay diverges at %d", i)
		}
	}
}

func TestPanicInBodySurfacesAsError(t *testing.T) {
	r := NewSeqEngine(2, RoundRobin{N: 2})
	_, err := r.RunMachines(Processes(2, func(pid, i int) Cursor {
		if i == 1 && pid == 1 {
			panic("boom")
		}
		if i == 1 {
			return nil
		}
		return &GateOp{Gate: r, PID: pid, Op: Op{Object: "X", Kind: OpRead, Comp: -1}, Width: 1}
	}))
	if err == nil {
		t.Fatal("expected error from panicking body")
	}
}

func TestStepHook(t *testing.T) {
	var seen []int
	r := NewSeqEngine(2, RoundRobin{N: 2}, WithStepHook(func(rec StepRecord) {
		seen = append(seen, rec.PID)
	}))
	res, err := r.RunMachines(counterMachines(r, r.n, 3))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(seen) != res.Steps {
		t.Fatalf("hook saw %d steps, trace has %d", len(seen), res.Steps)
	}
}

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Op{Object: "H", Kind: OpScan, Comp: -1}, "H.scan"},
		{Op{Object: "M", Kind: OpUpdate, Comp: 3}, "M.update[3]"},
		{Op{Object: "R", Kind: OpRead, Comp: 0}, "R.read[0]"},
		{Op{Object: "R", Kind: OpWrite, Comp: -1}, "R.write"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("Op.String() = %q, want %q", got, c.want)
		}
	}
}

func TestStrategiesNeverPickDisabled(t *testing.T) {
	strategies := map[string]Strategy{
		"roundrobin": RoundRobin{N: 5},
		"random":     NewRandom(1),
		"lowest":     Lowest{},
		"highest":    Highest{},
		"alternator": Alternator{Burst: 3},
	}
	enabledSets := [][]int{{0}, {1, 3}, {0, 2, 4}, {2}}
	for name, s := range strategies {
		for step := 0; step < 50; step++ {
			for _, enabled := range enabledSets {
				pick := s.Pick(step, enabled)
				ok := false
				for _, pid := range enabled {
					if pid == pick {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("%s picked %d from %v at step %d", name, pick, enabled, step)
				}
			}
		}
	}
}

func TestHaltFromStrategyFunc(t *testing.T) {
	r := NewSeqEngine(2, StrategyFunc(func(step int, enabled []int) int {
		if step >= 3 {
			return Halt
		}
		return enabled[0]
	}))
	res, err := r.RunMachines(counterMachines(r, r.n, 100))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Halted || res.Steps != 3 {
		t.Fatalf("halted=%v steps=%d, want true/3", res.Halted, res.Steps)
	}
}

func TestManyProcessesStress(t *testing.T) {
	const n = 32
	r := NewSeqEngine(n, NewRandom(99))
	res, err := r.RunMachines(counterMachines(r, r.n, 20))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Steps != n*20 {
		t.Fatalf("steps = %d", res.Steps)
	}
}

// writeOnce is a machine whose process writes R once.
type writeOnce struct {
	gate    Stepper
	pid     int
	started bool
}

func (w *writeOnce) Resume() bool {
	if !w.started {
		w.started = true
		return true // poised on the write
	}
	w.gate.Step(w.pid, Op{Object: "R", Kind: OpWrite, Comp: -1})
	return false
}

func ExampleSeqEngine() {
	r := NewSeqEngine(2, RoundRobin{N: 2})
	res, _ := r.RunMachines([]Machine{&writeOnce{gate: r, pid: 0}, &writeOnce{gate: r, pid: 1}})
	fmt.Println(res.Steps)
	// Output: 2
}

func TestStepAfterRunPanics(t *testing.T) {
	r := NewSeqEngine(1, RoundRobin{N: 1})
	if _, err := r.RunMachines(counterMachines(r, 1, 0)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Step after Run should panic, not deadlock")
		}
	}()
	r.Step(0, Op{Object: "X", Kind: OpRead, Comp: -1})
}

func TestSplitSeedStreamsAreIndependent(t *testing.T) {
	// Derivation is pure: same (base, stream) gives the same seed.
	if SplitSeed(7, 3) != SplitSeed(7, 3) {
		t.Fatal("SplitSeed is not a pure function")
	}
	// Adjacent streams (and adjacent bases) must decorrelate: the derived
	// Random strategies should not pick identical sequences.
	seen := map[int64]bool{}
	for stream := int64(0); stream < 100; stream++ {
		s := SplitSeed(42, stream)
		if seen[s] {
			t.Fatalf("stream %d collides with an earlier stream", stream)
		}
		seen[s] = true
	}
	a, b := NewRandom(SplitSeed(42, 0)), NewRandom(SplitSeed(42, 1))
	same := 0
	for i := 0; i < 64; i++ {
		if a.IntN(1000) == b.IntN(1000) {
			same++
		}
	}
	if same > 16 {
		t.Fatalf("adjacent split streams agree on %d/64 draws; they should be independent", same)
	}
}

func TestRandomIntNMatchesStream(t *testing.T) {
	// IntN and Pick consume one shared stream, reproducible from the seed.
	r1, r2 := NewRandom(9), NewRandom(9)
	for i := 0; i < 32; i++ {
		if r1.IntN(17) != r2.IntN(17) {
			t.Fatal("IntN is not reproducible from the seed")
		}
	}
}
