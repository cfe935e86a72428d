package nst

import (
	"fmt"
	"testing"

	"revisionist/internal/proto"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
	"revisionist/internal/spec"
)

func TestAdoptOrKeepSoloPathExists(t *testing.T) {
	conv := NewConverter(AdoptOrKeep{Comp: 0}, 1)
	p := NewProcess(conv, "a")
	d, err := p.SoloDistance()
	if err != nil {
		t.Fatal(err)
	}
	// scan (sees nil) -> write -> scan (sees own) -> final: 3 operations.
	if d != 3 {
		t.Fatalf("solo distance = %d, want 3", d)
	}
}

func TestDeterminizedSoloRunTerminatesWithDecreasingDistance(t *testing.T) {
	conv := NewConverter(AdoptOrKeep{Comp: 0}, 1)
	p := NewProcess(conv, "a")
	mem := make([]proto.Value, 1)
	prev, err := p.SoloDistance()
	if err != nil {
		t.Fatal(err)
	}
	for steps := 0; steps < 100; steps++ {
		op := p.NextOp()
		if op.Kind == proto.OpOutput {
			if op.Val != "a" {
				t.Fatalf("output %v, want a", op.Val)
			}
			return
		}
		switch op.Kind {
		case proto.OpScan:
			view := append([]proto.Value(nil), mem...)
			p.ApplyScan(view)
		case proto.OpUpdate:
			mem[op.Comp] = op.Val
			p.ApplyUpdate()
		}
		d, err := p.SoloDistance()
		if err != nil {
			t.Fatal(err)
		}
		// Theorem 35: along a solo run the shortest solo path length strictly
		// decreases.
		if d >= prev {
			t.Fatalf("solo distance did not decrease: %d -> %d", prev, d)
		}
		prev = d
	}
	t.Fatal("solo run did not terminate")
}

func TestDeterminizedIsDeterministic(t *testing.T) {
	mk := func() *Process {
		return NewProcess(NewConverter(AdoptOrKeep{Comp: 0}, 1), "x")
	}
	p, q := mk(), mk()
	views := [][]proto.Value{{nil}, nil, {"y"}, nil, {"x"}}
	for i := 0; i < len(views); i++ {
		po, qo := p.NextOp(), q.NextOp()
		if po != qo {
			t.Fatalf("step %d: ops diverge: %+v vs %+v", i, po, qo)
		}
		if po.Kind == proto.OpOutput {
			return
		}
		if po.Kind == proto.OpScan {
			p.ApplyScan(views[i])
			q.ApplyScan(views[i])
		} else {
			p.ApplyUpdate()
			q.ApplyUpdate()
		}
		if p.State().Key() != q.State().Key() {
			t.Fatalf("step %d: states diverge: %s vs %s", i, p.State().Key(), q.State().Key())
		}
	}
}

func TestEveryTransitionIsATransitionOfPi(t *testing.T) {
	// Theorem 35: δ′(s, a) ∈ δ(s, a), so every execution of Π′ is an
	// execution of Π. Drive the determinized process with adversarial views
	// and check each taken transition against the nondeterministic Delta.
	machine := AdoptOrKeep{Comp: 0}
	conv := NewConverter(machine, 1)
	p := NewProcess(conv, "a")
	views := [][]proto.Value{{nil}, nil, {"b"}, nil, {"c"}, nil, {"b"}, nil, {"a"}}
	for i := 0; ; i++ {
		op := p.NextOp()
		if op.Kind == proto.OpOutput {
			return
		}
		if i >= len(views) {
			t.Fatal("run too long")
		}
		before := p.State()
		var resp []proto.Value
		if op.Kind == proto.OpScan {
			resp = views[i]
			p.ApplyScan(resp)
		} else {
			p.ApplyUpdate()
		}
		after := p.State()
		legal := false
		for _, s := range machine.Delta(before, resp) {
			if s.Key() == after.Key() {
				legal = true
				break
			}
		}
		if !legal {
			t.Fatalf("step %d: transition %s -> %s not in Delta", i, before.Key(), after.Key())
		}
	}
}

// runNST runs n determinized processes over a shared m-component snapshot.
func runNST(t *testing.T, machine Machine, n, m int, inputs []proto.Value, strat sched.Strategy, maxSteps int) (*proto.RunResult, error) {
	t.Helper()
	procs := make([]proto.Process, n)
	for i := range procs {
		conv := NewConverter(machine, m)
		procs[i] = NewProcess(conv, inputs[i])
	}
	res, _, err := proto.Run(procs, m, nil, strat, sched.WithMaxSteps(maxSteps))
	return res, err
}

func TestDeterminizedProtocolObstructionFree(t *testing.T) {
	// Every process terminates when run solo after an arbitrary contended
	// prefix (the obstruction-freedom of Π′).
	inputs := []proto.Value{"a", "b", "c"}
	for solo := 0; solo < 3; solo++ {
		for _, after := range []int{0, 5, 20} {
			res, err := runNST(t, AdoptOrKeep{Comp: 0}, 3, 1, inputs,
				sched.Solo{PID: solo, After: after, Fallback: sched.RoundRobin{N: 3}}, 100_000)
			if err != nil {
				t.Fatalf("solo=%d after=%d: %v", solo, after, err)
			}
			if !res.Done[solo] {
				t.Fatalf("solo=%d after=%d: solo process did not terminate", solo, after)
			}
			if verr := (spec.Trivial{}).Validate(inputs, res.DoneOutputs()); verr != nil {
				t.Fatalf("solo=%d after=%d: %v", solo, after, verr)
			}
		}
	}
}

func TestDeterminizedProtocolRandomSchedules(t *testing.T) {
	inputs := []proto.Value{"a", "b", "c"}
	for seed := int64(0); seed < 30; seed++ {
		res, err := runNST(t, AdoptOrKeep{Comp: 0}, 3, 1, inputs, sched.NewRandom(seed), 100_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if verr := (spec.Trivial{}).Validate(inputs, res.DoneOutputs()); verr != nil {
			t.Fatalf("seed %d: %v", seed, verr)
		}
	}
}

func TestMultiCoinSoloTermination(t *testing.T) {
	for _, m := range []int{1, 2, 3} {
		conv := NewConverter(MultiCoin{M: m}, m)
		p := NewProcess(conv, 42)
		d, err := p.SoloDistance()
		if err != nil {
			t.Fatal(err)
		}
		if d < 0 || d > 2*m+1 {
			t.Fatalf("m=%d: solo distance %d, want in [0, %d]", m, d, 2*m+1)
		}
	}
}

func TestMultiCoinDeterminizedProtocol(t *testing.T) {
	inputs := []proto.Value{1, 2, 3, 4}
	for seed := int64(0); seed < 20; seed++ {
		res, err := runNST(t, MultiCoin{M: 2}, 4, 2, inputs, sched.NewRandom(seed), 200_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if verr := (spec.Trivial{}).Validate(inputs, res.DoneOutputs()); verr != nil {
			t.Fatalf("seed %d: %v", seed, verr)
		}
	}
	for solo := 0; solo < 4; solo++ {
		res, err := runNST(t, MultiCoin{M: 2}, 4, 2, inputs,
			sched.Solo{PID: solo, After: 10, Fallback: sched.RoundRobin{N: 4}}, 200_000)
		if err != nil {
			t.Fatalf("solo=%d: %v", solo, err)
		}
		if !res.Done[solo] {
			t.Fatalf("solo=%d: not obstruction-free", solo)
		}
	}
}

func TestMultiCoinClonesIndependent(t *testing.T) {
	conv := NewConverter(MultiCoin{M: 2}, 2)
	p := NewProcess(conv, 1)
	q := p.Clone().(*Process)
	p.ApplyScan(make([]proto.Value, 2))
	if p.State().Key() == q.State().Key() {
		t.Fatal("clone advanced with original")
	}
}

func TestTaggedRegistersABAFreedom(t *testing.T) {
	// ABA-freedom (§5.3): in any execution there is no i < j < k with the
	// register holding the same tagged value at configurations i and k but a
	// different one at j. Equivalently, a sequential reader never observes
	// the pattern A, then B != A, then A again — even when writers keep
	// rewriting the same logical value.
	for seed := int64(0); seed < 20; seed++ {
		runner := sched.NewSeqEngine(3, sched.NewRandom(seed), sched.WithMaxSteps(1<<20))
		tr := NewTaggedRegisters("R", runner, 1, 3)
		var obs []tagged
		_, err := runner.RunMachines(sched.Processes(3, func(pid, i int) sched.Cursor {
			switch {
			case pid == 2 && i < 12:
				return stepFunc(func() { obs = append(obs, tr.regs[0].Read(pid).(tagged)) })
			case pid != 2 && i < 4:
				return stepFunc(func() { tr.Write(pid, 0, "same-value") })
			}
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		lastAt := map[tagged]int{}
		run := 0 // index of the start of the current equal-run
		for i, tg := range obs {
			if i > 0 && tg != obs[i-1] {
				run = i
			}
			if at, ok := lastAt[tg]; ok && at < run-1 {
				// tg was seen, something else intervened, tg came back.
				t.Fatalf("seed %d: ABA pattern at read %d: %+v reappeared", seed, i, tg)
			}
			lastAt[tg] = i
		}
	}
}

func TestTaggedRegistersScan(t *testing.T) {
	tr := NewTaggedRegisters("R", shmem.Free{}, 3, 2)
	tr.Write(0, 0, "a")
	tr.Write(1, 2, "b")
	view := tr.Scan(0)
	want := []shmem.Value{"a", nil, "b"}
	for j := range want {
		if view[j] != want[j] {
			t.Fatalf("view = %v, want %v", view, want)
		}
	}
}

func TestTaggedRegistersScanUnderContention(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		runner := sched.NewSeqEngine(3, sched.NewRandom(seed), sched.WithMaxSteps(1<<20))
		tr := NewTaggedRegisters("R", runner, 2, 3)
		var scans []*shmem.SnapOp
		_, err := runner.RunMachines(sched.Processes(3, func(pid, i int) sched.Cursor {
			switch {
			case i == 3:
				return nil
			case pid == 2:
				// The scan cursor takes one register read per step, so the
				// writers interleave inside its collects.
				scans = append(scans, tr.StartScan(pid))
				return scans[i]
			}
			return stepFunc(func() { tr.Write(pid, pid%2, fmt.Sprintf("p%d-%d", pid, i)) })
		}))
		if err != nil {
			t.Fatal(err)
		}
		if len(scans) != 3 || scans[2].View() == nil {
			t.Fatalf("scanner completed %d scans", len(scans))
		}
	}
}

func TestDeterminizedRunsOverTaggedRegisters(t *testing.T) {
	// Corollary 36 end to end: the determinized protocol Π′ runs over the
	// ABA-free register implementation of the m-component object.
	inputs := []proto.Value{"a", "b"}
	for seed := int64(0); seed < 10; seed++ {
		runner := sched.NewSeqEngine(2, sched.NewRandom(seed), sched.WithMaxSteps(1<<20))
		tr := NewTaggedRegisters("R", runner, 1, 2)
		procs := make([]proto.Process, 2)
		for i := range procs {
			procs[i] = NewProcess(NewConverter(AdoptOrKeep{Comp: 0}, 1), inputs[i])
		}
		res := proto.NewRunResult(len(procs))
		_, err := runner.RunMachines(proto.Machines(procs, tr, res))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if verr := (spec.Trivial{}).Validate(inputs, res.DoneOutputs()); verr != nil {
			t.Fatalf("seed %d: %v", seed, verr)
		}
	}
}

func TestMaxBidOverMaxRegister(t *testing.T) {
	// Theorem 35 over a non-snapshot m-component object (§5.2): determinize
	// MaxBid with max-register semantics and run it over shmem.MaxSnapshot.
	conv := NewConverterFor(MaxBid{}, 1, MaxSemantics{Less: shmem.IntLess})
	p := NewProcess(conv, 5)
	d, err := p.SoloDistance()
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Fatalf("solo distance = %d, want 3 (writemax, scan, decide)", d)
	}
	for seed := int64(0); seed < 20; seed++ {
		runner := sched.NewSeqEngine(3, sched.NewRandom(seed), sched.WithMaxSteps(1<<20))
		snap := shmem.NewMaxSnapshot("X", runner, 1, shmem.IntLess)
		procs := make([]proto.Process, 3)
		for i := range procs {
			procs[i] = NewProcess(NewConverterFor(MaxBid{}, 1, MaxSemantics{Less: shmem.IntLess}), 3+i)
		}
		res := proto.NewRunResult(len(procs))
		_, err := runner.RunMachines(proto.Machines(procs, snap, res))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Outputs adopt the register value, which only grows: every output is
		// an int >= the smallest bid.
		for pid, done := range res.Done {
			if !done {
				continue
			}
			if v, ok := res.Outputs[pid].(int); !ok || v < 3 {
				t.Fatalf("seed %d: output %v", seed, res.Outputs[pid])
			}
		}
	}
}

func TestMaxBidSoloDistanceDecreases(t *testing.T) {
	conv := NewConverterFor(MaxBid{}, 1, MaxSemantics{Less: shmem.IntLess})
	p := NewProcess(conv, 1)
	mem := []proto.Value{nil}
	prev, err := p.SoloDistance()
	if err != nil {
		t.Fatal(err)
	}
	for steps := 0; steps < 50; steps++ {
		op := p.NextOp()
		if op.Kind == proto.OpOutput {
			return
		}
		if op.Kind == proto.OpScan {
			p.ApplyScan(append([]proto.Value(nil), mem...))
		} else {
			// Apply max-register semantics to the shared memory.
			if mem[op.Comp] == nil || shmem.IntLess(mem[op.Comp], op.Val) {
				mem[op.Comp] = op.Val
			}
			p.ApplyUpdate()
		}
		d, err := p.SoloDistance()
		if err != nil {
			t.Fatal(err)
		}
		if d >= prev {
			t.Fatalf("solo distance did not decrease: %d -> %d", prev, d)
		}
		prev = d
	}
	t.Fatal("did not terminate")
}

func TestMaxSnapshotMonotone(t *testing.T) {
	// The ABA-freedom §5.3 notes for max registers: component values never
	// regress.
	snap := shmem.NewMaxSnapshot("X", shmem.Free{}, 2, shmem.IntLess)
	snap.Update(0, 0, 5)
	snap.Update(1, 0, 3) // lower writemax is a no-op
	if got := snap.Scan(0)[0]; got != 5 {
		t.Fatalf("component regressed to %v", got)
	}
	snap.Update(1, 0, 9)
	if got := snap.Scan(0)[0]; got != 9 {
		t.Fatalf("component = %v, want 9", got)
	}
}

// stepFunc is a one-step operation: f performs exactly one gated step.
type stepFunc func()

func (f stepFunc) Step() bool { f(); return true }
