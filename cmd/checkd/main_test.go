package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

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

// TestUsageValidation pins the flag checks: each row must fail as a usage
// error (exit 2) before anything is listened on or started.
func TestUsageValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-max-active", "0"},
		{"-smoke", "-chaos", "1", "-kill"},
		{"-smoke", "-kill", "-admin", "127.0.0.1:0"},
		{"-smoke", "-chaos", "1", "-admin", "127.0.0.1:0"},
		{"-sync", "batch", "-sync-batch", "-5"},
		{"-sync", "batch", "-sync-delay", "-1ms"},
		// The autoscaler's flags are gone: unknown flags.
		{"-scale-max", "1"},
		{"-scale-min", "1"},
		{"-scale-interval", "1s"},
		{"-spawn-slots", "2"},
	} {
		// An unbindable -listen makes a row that slips past validation fail
		// at once instead of serving.
		var out bytes.Buffer
		if err := run(append(args, "-listen", "127.0.0.1:-1"), &out); !harness.IsUsage(err) {
			t.Errorf("%s: want usage error, got %v", strings.Join(args, " "), err)
		}
	}
}

// TestStartChildExitsAtOnce: a kill-smoke child that exits before it
// serves must fail the start as soon as its output closes, with its log,
// not after the 30 s wait for an address. The child here is this test
// binary running no tests: it prints PASS and exits.
func TestStartChildExitsAtOnce(t *testing.T) {
	start := time.Now()
	c, err := startChild(exec.Command(os.Args[0], "-test.run=^$"))
	if err == nil {
		c.stop(os.Kill)
		t.Fatal("a child that exits at once started")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("the failed start took %v", took)
	}
	if !strings.Contains(err.Error(), "PASS") {
		t.Fatalf("the error does not carry the child's log: %v", err)
	}
}
