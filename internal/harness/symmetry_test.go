package harness

import (
	"math/rand"
	"testing"

	"revisionist/internal/proto"
	"revisionist/internal/protocol"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
	"revisionist/internal/spec"
	"revisionist/internal/trace"
)

// symProtocols returns the registered protocols that declare a non-trivial
// symmetry at the given small parameters, with those parameters.
func symProtocols(t *testing.T) map[string]protocol.Params {
	t.Helper()
	out := map[string]protocol.Params{}
	for _, pr := range protocol.Protocols() {
		params := smallCheckParams(pr.Name)
		p, err := pr.Resolve(params)
		if err != nil {
			t.Fatal(err)
		}
		sym := pr.Symmetry(p)
		nontrivial := sym.RenameInputs
		for _, cl := range sym.Classes {
			if len(cl) >= 2 {
				nontrivial = true
			}
		}
		if nontrivial {
			out[pr.Name] = params
		}
	}
	if len(out) < 5 {
		t.Fatalf("expected at least 5 symmetric protocols, got %v", out)
	}
	return out
}

// symSystem builds one protocol system by hand with explicit inputs, ungated
// (a no-op stepper), runs the given pid schedule on it, and returns its
// canonical fingerprint. It mirrors factory/protoSystem, minus the engine.
func symSystem(t *testing.T, pr *protocol.Protocol, p protocol.Params,
	inputs []spec.Value, schedule []int) uint64 {
	t.Helper()
	inst, err := pr.InstantiateWith(p, inputs)
	if err != nil {
		t.Fatal(err)
	}
	res := proto.NewRunResult(len(inst.Procs))
	snap := shmem.NewMWSnapshot("M", shmem.Free{}, inst.M, nil)
	j := &protoJob{inputs: inst.Inputs, task: inst.Task, cz: canonicalizer(pr, p)}
	sys := protoSystem(j, snap, res, proto.Machines(inst.Procs, snap, res))
	for _, pid := range schedule {
		sys.Machines[pid].Resume()
	}
	h := sched.NewFingerprintHash()
	return sys.CanonicalFingerprint(&h)
}

// TestCanonicalFingerprintOrbitEquivalence is satellite soundness at the
// system level: configurations of one (default-inputs) system reached by
// σ-permuted schedules are one process-permutation orbit — the same progress
// assigned to renamed processes, holding correspondingly renamed inputs —
// and must get byte-identical canonical fingerprints. Configurations that
// genuinely differ (a non-canonical input value written in place of a
// declared one) must not collapse onto any orbit member.
func TestCanonicalFingerprintOrbitEquivalence(t *testing.T) {
	pr := protocol.MustLookup("firstvalue")
	p, err := pr.Resolve(protocol.Params{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	inputs := pr.DefaultInputs(p, p.N)
	for _, sigma := range [][]int{{1, 0, 2}, {1, 2, 0}, {2, 1, 0}} {
		for _, schedA := range [][]int{
			{},
			{0},
			{0, 0, 1, 2, 0},
			{2, 2, 1, 0, 2, 1, 0},
		} {
			schedB := make([]int, len(schedA))
			for i, pid := range schedA {
				schedB[i] = sigma[pid]
			}
			a := symSystem(t, pr, p, inputs, schedA)
			b := symSystem(t, pr, p, inputs, schedB)
			if a != b {
				t.Errorf("σ=%v schedule %v: orbit members hash apart: %#x vs %#x", sigma, schedA, a, b)
			}
		}
	}
	// Negative 1: different progress is a different orbit.
	if symSystem(t, pr, p, inputs, []int{0}) == symSystem(t, pr, p, inputs, []int{0, 0}) {
		t.Error("configurations of different progress collapsed")
	}
	// Negative 2: the same schedule writing an undeclared input value reaches
	// a configuration outside every canonical orbit (the stray value falls
	// back to the plain encoding instead of a role token).
	stray := []spec.Value{inputs[0], inputs[1], 999}
	if symSystem(t, pr, p, inputs, []int{2, 2, 2}) == symSystem(t, pr, p, stray, []int{2, 2, 2}) {
		t.Error("distinct-input configuration collapsed onto the canonical orbit")
	}
}

// TestCheckSymmetryMatchesUnreduced is the exactness contract of -symmetry:
// for every symmetric registered protocol at exhaustive bounds, the
// symmetry-reduced search must report the same Exhausted flag as plain
// pruning, find violations iff plain pruning does (the violation set modulo
// renaming interchangeable processes), never run more schedules, and every
// violation it reports must reproduce under replay. make race runs this
// package with -race.
func TestCheckSymmetryMatchesUnreduced(t *testing.T) {
	for name, params := range symProtocols(t) {
		t.Run(name, func(t *testing.T) {
			opts := Options{
				Protocol:      name,
				Params:        params,
				MaxDepth:      10,
				MaxRuns:       100_000,
				MaxViolations: 5,
				Prune:         true,
			}
			pruned, err := Check(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Symmetry = true
			sym, err := Check(opts)
			if err != nil {
				t.Fatal(err)
			}
			pl, sy := pruned.Explore, sym.Explore
			if pl.Exhausted != sy.Exhausted {
				t.Fatalf("Exhausted diverges: pruned %v, symmetry %v", pl.Exhausted, sy.Exhausted)
			}
			if sy.Runs > pl.Runs {
				t.Fatalf("symmetry ran more schedules: %d vs %d", sy.Runs, pl.Runs)
			}
			if sy.Distinct > pl.Distinct {
				t.Fatalf("symmetry closed more states: %d vs %d", sy.Distinct, pl.Distinct)
			}
			if (len(sy.Violations) > 0) != (len(pl.Violations) > 0) {
				t.Fatalf("violation presence diverges: symmetry %d, pruned %d",
					len(sy.Violations), len(pl.Violations))
			}
			pr, p, err := opts.resolve()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range sy.Violations {
				violErr, runErr := trace.ReplayViolation(p.N, factory(pr, p), v)
				if runErr != nil {
					t.Fatalf("violation %d: replay failed: %v", i, runErr)
				}
				if violErr == nil {
					t.Fatalf("violation %d on schedule %v did not reproduce", i, v.Schedule)
				}
			}
		})
	}
	// The payoff is pinned where it is largest: firstvalue's full S_n group
	// must yield strictly fewer runs AND strictly fewer distinct states.
	t.Run("firstvalue-strictly-fewer", func(t *testing.T) {
		opts := Options{Protocol: "firstvalue", Params: protocol.Params{N: 3},
			MaxDepth: 20, MaxRuns: 2_000_000, Prune: true}
		pruned, err := Check(opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Symmetry = true
		sym, err := Check(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sym.Explore.Exhausted || sym.Explore.Exhausted != pruned.Explore.Exhausted {
			t.Fatalf("not exhausted: pruned %v symmetry %v", pruned.Explore.Exhausted, sym.Explore.Exhausted)
		}
		if sym.Explore.Runs >= pruned.Explore.Runs {
			t.Fatalf("no run reduction: %d vs %d", sym.Explore.Runs, pruned.Explore.Runs)
		}
		if 3*sym.Explore.Distinct > pruned.Explore.Distinct {
			t.Fatalf("collapse below 3x on the S_3 orbit: %d vs %d distinct",
				sym.Explore.Distinct, pruned.Explore.Distinct)
		}
	})
}

// TestCheckSymmetryWorkersDeterministic extends the workers=1 ≡ workers=N
// contract to symmetry-reduced pruning over every symmetric protocol.
func TestCheckSymmetryWorkersDeterministic(t *testing.T) {
	for name, params := range symProtocols(t) {
		t.Run(name, func(t *testing.T) {
			opts := Options{
				Protocol:      name,
				Params:        params,
				MaxDepth:      10,
				MaxRuns:       4000,
				MaxViolations: 3,
				Symmetry:      true, // implies Prune
				Workers:       1,
			}
			seq, err := Check(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Workers = 8
			par, err := Check(opts)
			if err != nil {
				t.Fatal(err)
			}
			checkReportsEqual(t, name, seq.Explore, par.Explore)
		})
	}
}

// TestCanonicalFingerprintNoOpWithoutSymmetry: under a trivial symmetry
// group the canonical hook must equal the plain fingerprint at every
// decision of a seeded schedule, so -symmetry is a strict no-op there. Every
// registered protocol runs under the identity-only group, which also pins
// that no encoder treats a nil Canon differently from the identity; those
// whose declared group is trivial (paxos among them) also run under it.
func TestCanonicalFingerprintNoOpWithoutSymmetry(t *testing.T) {
	trivial := 0
	for i, pr := range protocol.Protocols() {
		p, err := pr.Resolve(protocol.Params{})
		if err != nil {
			t.Fatal(err)
		}
		identity, err := sched.NewCanonicalizer(sched.SymmetrySpec{N: p.N})
		if err != nil {
			t.Fatal(err)
		}
		groups := []*sched.Canonicalizer{identity}
		if declared := canonicalizer(pr, p); declared.Trivial() {
			groups = append(groups, declared)
			trivial++
		} else if pr.Name == "paxos" {
			t.Fatal("paxos must have the trivial group")
		}
		for g, cz := range groups {
			t.Run(pr.Name+"/"+[]string{"identity", "declared"}[g], func(t *testing.T) {
				j := &protoJob{inputs: pr.DefaultInputs(p, p.N), task: pr.Task(p), cz: cz}
				procs, m, err := pr.Build(p, j.inputs)
				if err != nil {
					t.Fatal(err)
				}
				h := sched.NewFingerprintHash()
				var sys trace.System
				decisions := 0
				probe := &decisionProbe{rng: rand.New(rand.NewSource(int64(i) + 1)), maxSteps: 60, at: func(step int) {
					decisions++
					h.Reset()
					sys.Fingerprint(&h)
					plain := h.Sum64()
					if canon := sys.CanonicalFingerprint(&h); canon != plain {
						t.Fatalf("step %d: trivial-group canonical fingerprint %x differs from the plain fingerprint %x", step, canon, plain)
					}
				}}
				eng := sched.NewSeqEngine(p.N, probe)
				res := proto.NewRunResult(len(procs))
				snap := shmem.NewMWSnapshot("M", eng, m, nil)
				sys = protoSystem(j, snap, res, proto.Machines(procs, snap, res))
				if _, err := eng.RunMachines(sys.Machines); err != nil && !IsStarved(err) {
					t.Fatal(err)
				}
				if decisions < 2 {
					t.Fatalf("the run made %d scheduling decisions, want several", decisions)
				}
			})
		}
	}
	if trivial == 0 {
		t.Fatal("no registered protocol has the trivial group")
	}
}

// decisionProbe is a seeded random strategy that calls at before every
// scheduling decision, up to maxSteps decisions, and records its picks.
type decisionProbe struct {
	rng      *rand.Rand
	maxSteps int
	at       func(step int)
	picks    []int
}

func (d *decisionProbe) Pick(step int, enabled []int) int {
	if step >= d.maxSteps {
		return sched.Halt
	}
	d.at(step)
	pick := enabled[d.rng.Intn(len(enabled))]
	d.picks = append(d.picks, pick)
	return pick
}
