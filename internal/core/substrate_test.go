package core

import (
	"testing"

	"revisionist/internal/proto"
	"revisionist/internal/sched"
	"revisionist/internal/spec"
)

// TestSimulationOverRegisterBuiltH runs the full stack of the paper's model:
// atomic registers implement the single-writer snapshot H (Afek et al.), H
// implements the augmented snapshot (§3), and the simulators run Algorithms
// 5–7 over it. Outputs are validated at the task level (the offline §3
// checker assumes an atomic H; see augsnap.NewOver).
func TestSimulationOverRegisterBuiltH(t *testing.T) {
	cfg := Config{N: 4, M: 2, F: 2, D: 0, RegisterBuiltH: true}
	inputs := []proto.Value{10, 20}
	mkKSet := func(in []proto.Value) ([]proto.Process, error) {
		return sharedPaxosProtocol(in)
	}
	for seed := int64(0); seed < 30; seed++ {
		res, err := Run(cfg, inputs, mkKSet, sched.NewRandom(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Done[0] || !res.Done[1] {
			t.Fatalf("seed %d: simulation over registers not wait-free: %v", seed, res.Done)
		}
		if verr := (spec.Trivial{}).Validate(inputs, res.Outputs); verr != nil {
			t.Fatalf("seed %d: %v", seed, verr)
		}
	}
}

func TestRegisterBuiltHCostsMoreSteps(t *testing.T) {
	// The register-built H pays ~2f reads per H operation; the same seed and
	// workload must take strictly more scheduler steps than the atomic H.
	// The exact totals over seeds 0-4 are pinned: every register read or
	// write is one scheduler step, so a change in how the simulators are
	// driven that adds, drops or reorders a step shows here.
	inputs := []proto.Value{1, 2}
	mk := func(in []proto.Value) ([]proto.Process, error) {
		return sharedPaxosProtocol(in)
	}
	atomicSteps, regSteps := 0, 0
	for seed := int64(0); seed < 5; seed++ {
		resA, err := Run(Config{N: 4, M: 2, F: 2, D: 0}, inputs, mk, sched.NewRandom(seed))
		if err != nil {
			t.Fatal(err)
		}
		resR, err := Run(Config{N: 4, M: 2, F: 2, D: 0, RegisterBuiltH: true}, inputs, mk, sched.NewRandom(seed))
		if err != nil {
			t.Fatal(err)
		}
		atomicSteps += resA.Steps
		regSteps += resR.Steps
	}
	if regSteps <= atomicSteps {
		t.Fatalf("register-built H took %d steps <= atomic %d", regSteps, atomicSteps)
	}
	if atomicSteps != 144 || regSteps != 761 {
		t.Fatalf("steps over seeds 0-4: atomic H %d, register-built H %d; want 144 and 761", atomicSteps, regSteps)
	}
	t.Logf("atomic H: %d steps; register-built H: %d steps (x%.1f)",
		atomicSteps, regSteps, float64(regSteps)/float64(atomicSteps))
}

func TestSimulationDeterministicPerSeed(t *testing.T) {
	cfg := Config{N: 4, M: 2, F: 2, D: 0}
	inputs := []proto.Value{7, 8}
	for seed := int64(0); seed < 10; seed++ {
		a, err := Run(cfg, inputs, sharedPaxosProtocol, sched.NewRandom(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg, inputs, sharedPaxosProtocol, sched.NewRandom(seed))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cfg.F; i++ {
			if a.Outputs[i] != b.Outputs[i] || a.OutputBy[i] != b.OutputBy[i] ||
				a.BlockUpdates[i] != b.BlockUpdates[i] || a.Scans[i] != b.Scans[i] {
				t.Fatalf("seed %d: simulation not deterministic", seed)
			}
		}
		if a.Steps != b.Steps {
			t.Fatalf("seed %d: step counts differ: %d vs %d", seed, a.Steps, b.Steps)
		}
	}
}
