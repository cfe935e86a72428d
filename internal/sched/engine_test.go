package sched_test

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"revisionist/internal/augsnap"
	"revisionist/internal/proto"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
	"revisionist/internal/trace"
)

// The equivalence tests compare SeqEngine against the reference Runner
// (runner_test.go), a goroutine-per-process engine that admits one
// operation at a time through a channel gate. They live in the external
// test package so they can drive real shared objects (augsnap, proto)
// while still reaching the test-only Runner.

// engine is the surface both implementations share.
type engine interface {
	sched.Stepper
	RunMachines(machines []sched.Machine) (*sched.Result, error)
}

// engines is the comparison pair: the reference runner first, then the
// production engine.
var engines = []struct {
	name string
	mk   func(n int, strat sched.Strategy, opts ...sched.Option) engine
}{
	{"runner", func(n int, strat sched.Strategy, opts ...sched.Option) engine {
		return sched.NewRunner(n, strat, opts...)
	}},
	{"seq", func(n int, strat sched.Strategy, opts ...sched.Option) engine {
		return sched.NewSeqEngine(n, strat, opts...)
	}},
}

// gateOp returns a one-step operation by pid: a read of object[comp].
func gateOp(gate sched.Stepper, pid int, object string, comp int) sched.Cursor {
	return &sched.GateOp{Gate: gate, PID: pid, Op: sched.Op{Object: object, Kind: sched.OpRead, Comp: comp}, Width: 1}
}

// engineMachines returns n machines in which each process takes `steps`
// one-step operations through the given gate (a negative count never
// finishes), with a final extra step for even pids so the enabled set
// shrinks unevenly.
func engineMachines(gate sched.Stepper, n, steps int) []sched.Machine {
	return sched.Processes(n, func(pid, i int) sched.Cursor {
		switch {
		case i < steps || steps < 0:
			return gateOp(gate, pid, "X", i)
		case i == steps && pid%2 == 0:
			return &sched.GateOp{Gate: gate, PID: pid, Op: sched.Op{Object: "Y", Kind: sched.OpWrite, Comp: -1}, Width: 1}
		}
		return nil
	})
}

// wideMachines returns n machines whose operations span several gated steps:
// process pid performs 3+pid operations, operation i taking 1+(pid+i)%3
// steps, so processes interleave inside each other's operations.
func wideMachines(gate sched.Stepper, n int) []sched.Machine {
	return sched.Processes(n, func(pid, i int) sched.Cursor {
		if i == 3+pid {
			return nil
		}
		return &sched.GateOp{Gate: gate, PID: pid, Op: sched.Op{Object: "W", Kind: sched.OpRead, Comp: i}, Width: 1 + (pid+i)%3}
	})
}

// equivalenceStrategies is the cross-engine test matrix: fair, seeded random
// and adversarial schedulers.
func equivalenceStrategies(n int) map[string]func() sched.Strategy {
	return map[string]func() sched.Strategy{
		"roundrobin": func() sched.Strategy { return sched.RoundRobin{N: n} },
		"random7":    func() sched.Strategy { return sched.NewRandom(7) },
		"random99":   func() sched.Strategy { return sched.NewRandom(99) },
		"lowest":     func() sched.Strategy { return sched.Lowest{} },
		"highest":    func() sched.Strategy { return sched.Highest{} },
		"alternate3": func() sched.Strategy { return sched.Alternator{Burst: 3} },
		"solo":       func() sched.Strategy { return sched.Solo{PID: 1, After: 4, Fallback: sched.RoundRobin{N: n}} },
		"crash":      func() sched.Strategy { return sched.Crash{Crashed: map[int]int{0: 5}, Inner: sched.RoundRobin{N: n}} },
	}
}

// sameResult fails t unless two runs' results agree field by field: the
// reference runner's and the SeqEngine's, or a fresh and a restarted
// engine's.
func sameResult(t *testing.T, ref, got *sched.Result, referr, goterr error) {
	t.Helper()
	if (referr == nil) != (goterr == nil) {
		t.Fatalf("error mismatch: ref=%v got=%v", referr, goterr)
	}
	if !reflect.DeepEqual(ref.Trace, got.Trace) {
		t.Fatalf("traces differ:\nref: %v\ngot: %v", ref.Trace, got.Trace)
	}
	if !reflect.DeepEqual(ref.StepsBy, got.StepsBy) || !reflect.DeepEqual(ref.Finished, got.Finished) {
		t.Fatalf("results differ: ref=%+v got=%+v", ref, got)
	}
	if ref.Halted != got.Halted || ref.Steps != got.Steps {
		t.Fatalf("halted/steps differ: ref=%+v got=%+v", ref, got)
	}
}

// TestEnginesProduceIdenticalTraces runs machines of one-step operations and
// machines whose operations span several gated steps on both engines.
func TestEnginesProduceIdenticalTraces(t *testing.T) {
	const n, steps = 4, 9
	workloads := map[string]func(gate sched.Stepper) []sched.Machine{
		"one-step":   func(gate sched.Stepper) []sched.Machine { return engineMachines(gate, n, steps) },
		"multi-step": func(gate sched.Stepper) []sched.Machine { return wideMachines(gate, n) },
	}
	for name, mk := range equivalenceStrategies(n) {
		t.Run(name, func(t *testing.T) {
			for wname, build := range workloads {
				t.Run(wname, func(t *testing.T) {
					var res [2]*sched.Result
					var errs [2]error
					for i, e := range engines {
						eng := e.mk(n, mk())
						res[i], errs[i] = eng.RunMachines(build(eng))
					}
					sameResult(t, res[0], res[1], errs[0], errs[1])
				})
			}
		})
	}
}

func TestEnginesAgreeOnStepBudget(t *testing.T) {
	for _, e := range engines {
		eng := e.mk(2, sched.RoundRobin{N: 2}, sched.WithMaxSteps(9))
		res, rerr := eng.RunMachines(engineMachines(eng, 2, -1))
		if !errors.Is(rerr, sched.ErrMaxSteps) {
			t.Fatalf("%s: err = %v, want ErrMaxSteps", e.name, rerr)
		}
		if res.Steps != 9 {
			t.Fatalf("%s: steps = %d, want 9", e.name, res.Steps)
		}
		if res.Finished[0] || res.Finished[1] {
			t.Fatalf("%s: starved processes reported finished", e.name)
		}
	}
}

func TestEnginesAgreeOnHalt(t *testing.T) {
	for _, e := range engines {
		eng := e.mk(3, sched.StrategyFunc(func(step int, enabled []int) int {
			if step >= 5 {
				return sched.Halt
			}
			return enabled[0]
		}))
		res, err := eng.RunMachines(engineMachines(eng, 3, 10))
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if !res.Halted || res.Steps != 5 {
			t.Fatalf("%s: halted=%v steps=%d, want halted at 5", e.name, res.Halted, res.Steps)
		}
		for pid, f := range res.Finished {
			if f {
				t.Fatalf("%s: pid %d finished after halt", e.name, pid)
			}
		}
	}
}

func TestEnginesAgreeOnBodyPanic(t *testing.T) {
	for _, e := range engines {
		eng := e.mk(2, sched.RoundRobin{N: 2})
		res, rerr := eng.RunMachines(sched.Processes(2, func(pid, i int) sched.Cursor {
			switch {
			case i == 1 && pid == 1:
				panic("protocol bug")
			case i == 11:
				return nil
			}
			return gateOp(eng, pid, "X", -1)
		}))
		if rerr == nil || !strings.Contains(rerr.Error(), "process 1 panicked") {
			t.Fatalf("%s: err = %v, want process 1 panic", e.name, rerr)
		}
		if len(res.PanicVals) != 1 || res.PanicVals[0] != "protocol bug" {
			t.Fatalf("%s: PanicVals = %v", e.name, res.PanicVals)
		}
		if res.Finished[0] || res.Finished[1] {
			t.Fatalf("%s: finished = %v, want none", e.name, res.Finished)
		}
	}
}

func TestEnginesAgreeOnInvalidPick(t *testing.T) {
	for _, e := range engines {
		eng := e.mk(2, sched.StrategyFunc(func(step int, enabled []int) int { return 42 }))
		_, err := eng.RunMachines(engineMachines(eng, 2, 4))
		if err == nil || !strings.Contains(err.Error(), "not in enabled set") {
			t.Fatalf("%s: err = %v, want invalid-pick error", e.name, err)
		}
	}
}

func TestEnginesAreSingleUse(t *testing.T) {
	for _, e := range engines {
		eng := e.mk(1, sched.RoundRobin{N: 1})
		if _, err := eng.RunMachines(engineMachines(eng, 1, 1)); err != nil {
			t.Fatalf("%s: first run: %v", e.name, err)
		}
		if _, err := eng.RunMachines(engineMachines(eng, 1, 1)); !errors.Is(err, sched.ErrReused) {
			t.Fatalf("%s: second run err = %v, want ErrReused", e.name, err)
		}
	}
}

func TestSeqEngineStepAfterRunPanics(t *testing.T) {
	eng := sched.NewSeqEngine(1, sched.RoundRobin{N: 1})
	if _, err := eng.RunMachines(engineMachines(eng, 1, 1)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Step after run completed did not panic")
		}
	}()
	eng.Step(0, sched.Op{Object: "X", Kind: sched.OpRead, Comp: -1})
}

// stepsMachine is a native machine taking a fixed number of one-op steps.
type stepsMachine struct {
	gate    sched.Stepper
	pid     int
	left    int
	started bool
	// perResume > 1 deliberately violates the one-op contract.
	perResume int
}

func (m *stepsMachine) Resume() bool {
	if !m.started {
		m.started = true
		return m.left > 0
	}
	for i := 0; i < m.perResume; i++ {
		m.gate.Step(m.pid, sched.Op{Object: "N", Kind: sched.OpRead, Comp: -1})
	}
	m.left--
	return m.left > 0
}

// stepsMachines returns n one-op machines gated by gate; pid takes 3+2·pid
// steps, so the enabled set shrinks unevenly.
func stepsMachines(gate sched.Stepper, n int) []*stepsMachine {
	ms := make([]*stepsMachine, n)
	for pid := range ms {
		ms[pid] = &stepsMachine{gate: gate, pid: pid, left: 3 + 2*pid, perResume: 1}
	}
	return ms
}

func asMachines(ms []*stepsMachine) []sched.Machine {
	out := make([]sched.Machine, len(ms))
	for i, m := range ms {
		out[i] = m
	}
	return out
}

func TestRunMachinesMatchesAcrossEngines(t *testing.T) {
	const n = 4
	for name, mk := range equivalenceStrategies(n) {
		t.Run(name, func(t *testing.T) {
			var res [2]*sched.Result
			var errs [2]error
			for i, e := range engines {
				eng := e.mk(n, mk())
				res[i], errs[i] = eng.RunMachines(asMachines(stepsMachines(eng, n)))
			}
			sameResult(t, res[0], res[1], errs[0], errs[1])
		})
	}
}

func TestEnginesRejectMultiStepMachine(t *testing.T) {
	for _, e := range engines {
		eng := e.mk(1, sched.RoundRobin{N: 1})
		_, err := eng.RunMachines([]sched.Machine{&stepsMachine{gate: eng, pid: 0, left: 2, perResume: 2}})
		if err == nil || !strings.Contains(err.Error(), "second gated operation") {
			t.Fatalf("%s: err = %v, want second-gated-operation violation", e.name, err)
		}
	}
}

func TestEnginesRejectStepFreeMachine(t *testing.T) {
	for _, e := range engines {
		eng := e.mk(1, sched.RoundRobin{N: 1})
		_, err := eng.RunMachines([]sched.Machine{&stepsMachine{gate: eng, pid: 0, left: 2, perResume: 0}})
		if err == nil || !strings.Contains(err.Error(), "no gated operation") {
			t.Fatalf("%s: err = %v, want no-gated-operation violation", e.name, err)
		}
	}
}

// augWorkload returns f machines running a seeded random mix of Scans and
// Block-Updates on a, one augmented-snapshot cursor per operation.
func augWorkload(a *augsnap.AugSnapshot, f, m, ops int, seed int64) []sched.Machine {
	rngs := make([]*rand.Rand, f)
	for pid := range rngs {
		rngs[pid] = rand.New(rand.NewSource(seed*1000 + int64(pid)))
	}
	return sched.Processes(f, func(pid, i int) sched.Cursor {
		rng := rngs[pid]
		switch {
		case i == ops:
			return nil
		case rng.Intn(4) == 0:
			return a.StartScan(pid)
		}
		r := 1 + rng.Intn(m)
		comps := rng.Perm(m)[:r]
		vals := make([]augsnap.Value, r)
		for g := range vals {
			vals[g] = fmt.Sprintf("p%d-%d-%d", pid, i, g)
		}
		return a.StartBlockUpdate(pid, comps, vals)
	})
}

// TestAugWorkloadTraceIdenticalAcrossEngines drives the step-heaviest object
// (the augmented snapshot, several H-steps per operation with helping in
// between) on both engines and requires byte-identical step traces and
// H-histories, and a §3-conforming log. Over the register-built H every H
// operation itself spans several register steps.
func TestAugWorkloadTraceIdenticalAcrossEngines(t *testing.T) {
	const f, m, ops = 4, 3, 6
	for _, registers := range []bool{false, true} {
		for seed := int64(0); seed < 12; seed++ {
			var res [2]*sched.Result
			var snaps [2]*augsnap.AugSnapshot
			for i, e := range engines {
				eng := e.mk(f, sched.NewRandom(seed), sched.WithMaxSteps(1<<22))
				if registers {
					snaps[i] = augsnap.NewOver(shmem.NewRegSWSnapshot("H", eng, f, augsnap.HComp{}), f, m)
				} else {
					snaps[i] = augsnap.New(eng, f, m)
				}
				var err error
				if res[i], err = eng.RunMachines(augWorkload(snaps[i], f, m, ops, seed)); err != nil {
					t.Fatalf("%s registers=%v seed %d: %v", e.name, registers, seed, err)
				}
			}
			if !reflect.DeepEqual(res[0].Trace, res[1].Trace) {
				t.Fatalf("registers=%v seed %d: step traces differ", registers, seed)
			}
			if !reflect.DeepEqual(snaps[0].Log().Events, snaps[1].Log().Events) {
				t.Fatalf("registers=%v seed %d: H-histories differ", registers, seed)
			}
			// The offline checker assumes an atomic H (see augsnap.NewOver).
			if err := trace.Check(snaps[1].Log(), m); !registers && err != nil {
				t.Fatalf("seed %d: seq-engine run violates the §3 spec: %v", seed, err)
			}
		}
	}
}

// scripted is a protocol process that alternates scans and updates of its
// own component `writes` times, then outputs the last value it saw there.
type scripted struct {
	comp, writes, step int
	poised             proto.Op
	started, done      bool
	lastSeen           proto.Value
}

func (s *scripted) NextOp() proto.Op {
	if s.done {
		return proto.Op{Kind: proto.OpOutput, Val: s.lastSeen}
	}
	if !s.started || s.poised.Kind == proto.OpScan {
		return proto.Op{Kind: proto.OpScan}
	}
	return s.poised
}

func (s *scripted) ApplyScan(view []proto.Value) {
	s.lastSeen = view[s.comp]
	s.started = true
	if s.step >= s.writes {
		s.done = true
		return
	}
	s.step++
	s.poised = proto.Op{Kind: proto.OpUpdate, Comp: s.comp, Val: s.step}
}

func (s *scripted) ApplyUpdate() { s.poised = proto.Op{Kind: proto.OpScan} }

func (s *scripted) Clone() proto.Process {
	c := *s
	return &c
}

// stepFunc is a one-step operation: f performs exactly one gated step.
type stepFunc func()

func (f stepFunc) Step() bool { f(); return true }

// bodyMachines drives each process the way a straight-line process body
// would — poll NextOp, perform the operation, apply its response — with one
// cursor per snapshot operation. It shares no code with proto.Machines, so
// it is the independent reference the adapter is checked against.
func bodyMachines(procs []proto.Process, snap proto.Snapshot, res *proto.RunResult) []sched.Machine {
	return sched.Processes(len(procs), func(pid, _ int) sched.Cursor {
		p := procs[pid]
		switch op := p.NextOp(); op.Kind {
		case proto.OpScan:
			return stepFunc(func() { p.ApplyScan(snap.Scan(pid)); res.OpsBy[pid]++ })
		case proto.OpUpdate:
			return stepFunc(func() { snap.Update(pid, op.Comp, op.Val); p.ApplyUpdate(); res.OpsBy[pid]++ })
		default:
			res.Outputs[pid], res.Done[pid] = op.Val, true
			return nil
		}
	})
}

// TestMachineMatchesBodyAcrossEngines checks the four execution paths of a
// protocol — {runner, seq} × {body-style reference, proto.Machines} —
// produce byte-identical traces and identical protocol results for the same
// strategy.
func TestMachineMatchesBodyAcrossEngines(t *testing.T) {
	run := func(t *testing.T, e int, machines bool, strat sched.Strategy) (*proto.RunResult, *sched.Result) {
		t.Helper()
		procs := []proto.Process{&scripted{comp: 0, writes: 3}, &scripted{comp: 1, writes: 3}}
		res := proto.NewRunResult(2)
		eng := engines[e].mk(2, strat, sched.WithMaxSteps(1<<16))
		snap := shmem.NewMWSnapshot("M", eng, 2, nil)
		ms := bodyMachines(procs, snap, res)
		if machines {
			ms = proto.Machines(procs, snap, res)
		}
		sres, err := eng.RunMachines(ms)
		if err != nil {
			t.Fatal(err)
		}
		return res, sres
	}
	for name, mk := range equivalenceStrategies(2) {
		t.Run(name, func(t *testing.T) {
			refRes, refTrace := run(t, 0, false, mk())
			for _, p := range []struct {
				name     string
				engine   int
				machines bool
			}{
				{"runner/machines", 0, true},
				{"seq/body", 1, false},
				{"seq/machines", 1, true},
			} {
				res, sres := run(t, p.engine, p.machines, mk())
				if !reflect.DeepEqual(sres.Trace, refTrace.Trace) {
					t.Fatalf("%s: trace differs from runner/body:\nref: %v\ngot: %v", p.name, refTrace.Trace, sres.Trace)
				}
				if !reflect.DeepEqual(res, refRes) {
					t.Fatalf("%s: run result differs: ref %+v, got %+v", p.name, refRes, res)
				}
			}
		})
	}
}

// TestRegisterBuiltMachinesMatchAcrossEngines runs protocol machines over
// the register-built multi-writer snapshot, whose scans and updates take one
// step per register read or write, on both engines under every strategy.
func TestRegisterBuiltMachinesMatchAcrossEngines(t *testing.T) {
	for name, mk := range equivalenceStrategies(3) {
		t.Run(name, func(t *testing.T) {
			var res [2]*proto.RunResult
			var sres [2]*sched.Result
			var errs [2]error
			for i, e := range engines {
				procs := []proto.Process{&scripted{comp: 0, writes: 2}, &scripted{comp: 1, writes: 2}, &scripted{comp: 0, writes: 1}}
				res[i] = proto.NewRunResult(3)
				eng := e.mk(3, mk(), sched.WithMaxSteps(1<<16))
				snap := shmem.NewRegMWSnapshot("M", eng, 2, 3, nil)
				sres[i], errs[i] = eng.RunMachines(proto.Machines(procs, snap, res[i]))
			}
			sameResult(t, sres[0], sres[1], errs[0], errs[1])
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Fatalf("run results differ: runner %+v, seq %+v", res[0], res[1])
			}
			if sres[1].Steps <= res[1].OpsBy[0]+res[1].OpsBy[1]+res[1].OpsBy[2] {
				t.Fatalf("%d steps for %v operations: register-built operations must take several steps", sres[1].Steps, res[1].OpsBy)
			}
		})
	}
}

// fpRecorder wraps a strategy and records the configuration fingerprint at
// every decision point, where both engines are quiescent by construction.
type fpRecorder struct {
	inner sched.Strategy
	fp    func(*maphash.Hash)
	h     maphash.Hash
	out   []uint64
}

func (r *fpRecorder) Pick(step int, enabled []int) int {
	r.h.Reset()
	r.fp(&r.h)
	r.out = append(r.out, r.h.Sum64())
	return r.inner.Pick(step, enabled)
}

// TestFingerprintsIdenticalAcrossEngines drives the same seeded schedule on
// both engines over a register-based and an augsnap-based system and
// requires byte-identical configuration hashes at every step.
func TestFingerprintsIdenticalAcrossEngines(t *testing.T) {
	runBoth := func(t *testing.T, nprocs int, seed int64,
		build func(gate sched.Stepper) ([]sched.Machine, func(*maphash.Hash))) {
		t.Helper()
		var got [2][]uint64
		for i, e := range engines {
			rec := &fpRecorder{inner: sched.NewRandom(seed), h: sched.NewFingerprintHash()}
			eng := e.mk(nprocs, rec, sched.WithMaxSteps(1<<22))
			machines, fp := build(eng)
			rec.fp = fp
			if _, err := eng.RunMachines(machines); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			got[i] = rec.out
		}
		if len(got[0]) == 0 {
			t.Fatal("no fingerprints recorded")
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("fingerprints differ:\nrunner: %x\nseq:    %x", got[0], got[1])
		}
	}

	t.Run("registers", func(t *testing.T) {
		for seed := int64(0); seed < 8; seed++ {
			runBoth(t, 3, seed, func(gate sched.Stepper) ([]sched.Machine, func(*maphash.Hash)) {
				regs := []*shmem.Register{
					shmem.NewRegister("A", gate, nil),
					shmem.NewRegister("B", gate, 0),
				}
				// Four rounds of: write one register, read the other.
				machines := sched.Processes(3, func(pid, i int) sched.Cursor {
					switch round := i / 2; {
					case round == 4:
						return nil
					case i%2 == 0:
						return stepFunc(func() { regs[round%2].Write(pid, pid*10+round) })
					default:
						return stepFunc(func() { regs[(round+1)%2].Read(pid) })
					}
				})
				return machines, func(h *maphash.Hash) {
					for _, r := range regs {
						r.AppendFingerprint(h)
					}
				}
			})
		}
	})

	t.Run("augsnap", func(t *testing.T) {
		const f, m, ops = 3, 2, 4
		for seed := int64(0); seed < 4; seed++ {
			runBoth(t, f, seed, func(gate sched.Stepper) ([]sched.Machine, func(*maphash.Hash)) {
				a := augsnap.New(gate, f, m)
				rngs := make([]*rand.Rand, f)
				for pid := range rngs {
					rngs[pid] = rand.New(rand.NewSource(seed*1000 + int64(pid)))
				}
				machines := sched.Processes(f, func(pid, i int) sched.Cursor {
					switch rng := rngs[pid]; {
					case i == ops:
						return nil
					case rng.Intn(3) == 0:
						return a.StartScan(pid)
					default:
						return a.StartBlockUpdate(pid, []int{rng.Intn(m)}, []augsnap.Value{fmt.Sprintf("p%d-%d", pid, i)})
					}
				})
				return machines, a.AppendFingerprint
			})
		}
	})
}
