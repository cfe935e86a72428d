package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSmokeMode runs the loopback self-check end to end on a small instance:
// one coordinator, two real TCP workers, byte-compared against the
// single-process run.
func TestSmokeMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-protocol", "consensus", "-n", "2", "-depth", "10"}, &out); err != nil {
		t.Fatalf("smoke failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "byte-identical") {
		t.Fatalf("missing verdict:\n%s", out.String())
	}
}

// TestSmokeModePruned covers the visited-state publication path over TCP.
func TestSmokeModePruned(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-protocol", "firstvalue", "-n", "4", "-prune"}, &out); err != nil {
		t.Fatalf("pruned smoke failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "state pruning:") {
		t.Fatalf("missing pruning counters:\n%s", out.String())
	}
}

// TestSmokeModeSymmetry covers symmetry-reduced pruning over TCP: the job's
// Symmetry option crosses the wire, workers canonicalize identically, and the
// merged report stays byte-identical to the single-process one.
func TestSmokeModeSymmetry(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-protocol", "firstvalue", "-n", "4", "-prune", "-symmetry"}, &out); err != nil {
		t.Fatalf("symmetry smoke failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "state pruning (symmetry-reduced):") {
		t.Fatalf("missing symmetry-reduced pruning counters:\n%s", out.String())
	}
}

// TestModeValidation requires exactly one of the three modes.
func TestModeValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "consensus"}, &out); err == nil {
		t.Fatal("mode-less invocation accepted")
	}
	if err := run([]string{"-smoke", "-serve", ":0"}, &out); err == nil {
		t.Fatal("two modes accepted")
	}
}

// TestSearchBoundsBelowOneAreUsageErrors: -depth, -maxruns and -maxviol
// below 1 are usage errors (exit 2) in every mode, not a silent switch to
// the default bound.
func TestSearchBoundsBelowOneAreUsageErrors(t *testing.T) {
	for _, bound := range [][]string{
		{"-depth", "-3"}, {"-depth", "0"},
		{"-maxruns", "0"}, {"-maxruns", "-1"},
		{"-maxviol", "0"}, {"-maxviol", "-2"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-smoke", "-protocol", "firstvalue-consensus", "-n", "2"}, bound...), &out)
		if exitCode(err) != 2 {
			t.Errorf("%v: want exit 2, got %v", bound, err)
		}
	}
}
