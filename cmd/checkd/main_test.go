package main

import (
	"bytes"
	"strings"
	"testing"

	"revisionist/internal/harness"
)

// TestSmokeMode runs the `make jobd-smoke` payload end to end: a daemon with
// two TCP workers, three concurrent jobs, reports byte-compared against
// single-process runs.
func TestSmokeMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-smoke"}, &out); err != nil {
		t.Fatalf("smoke failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "byte-identical") {
		t.Fatalf("missing verdict:\n%s", out.String())
	}
}

// TestChaosSmokeMode runs the `make chaos-smoke` payload for one seed: the
// loopback scenario with a crashing, a hanging and a flaky-dialing worker.
func TestChaosSmokeMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-chaos", "1"}, &out); err != nil {
		t.Fatalf("chaos smoke failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "byte-identical") {
		t.Fatalf("missing verdict:\n%s", out.String())
	}
}

// TestObsSmokeMode runs the `make obs-smoke` payload: the loopback scenario
// with the journal, the registry and the admin listener on, then every
// endpoint, metric series and trace event checked.
func TestObsSmokeMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-admin", "127.0.0.1:0"}, &out); err != nil {
		t.Fatalf("obs smoke failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"byte-identical", "required series", "flight recording"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in output:\n%s", want, out.String())
		}
	}
}

// TestUsageValidation pins the flag checks.
func TestUsageValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-max-active", "0"}, &out); !harness.IsUsage(err) {
		t.Fatalf("-max-active 0: want usage error, got %v", err)
	}
	if err := run([]string{"-scale-min", "2", "-scale-max", "1"}, &out); !harness.IsUsage(err) {
		t.Fatalf("scale-min > scale-max: want usage error, got %v", err)
	}
}
