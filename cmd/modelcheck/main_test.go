package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"revisionist/internal/harness"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (re-run with -update to accept):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestFalsificationGolden pins the README's documented invocation:
// modelcheck -protocol firstvalue-consensus -n 2 -depth 12 must find the
// agreement violations Corollary 33 promises, and exit non-zero.
func TestFalsificationGolden(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-protocol", "firstvalue-consensus", "-n", "2", "-depth", "12"}, &out)
	if err == nil {
		t.Fatal("expected a violations error for the 1-register protocol")
	}
	checkGolden(t, "falsification.golden", out.Bytes())
}

// TestSymmetryGolden pins the -prune -symmetry report, orbit-collapse line
// included: canonical-fingerprint counts depend only on hash equality, never
// on hash values, so they are deterministic across processes and machines.
func TestSymmetryGolden(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-protocol", "firstvalue", "-n", "3", "-depth", "20", "-prune", "-symmetry"}, &out)
	if err != nil {
		t.Fatalf("firstvalue should check clean: %v\n%s", err, out.String())
	}
	checkGolden(t, "symmetry.golden", out.Bytes())
}

// TestCorrectProtocolClean checks the complementary direction: correct
// consensus has no violating schedule at small depth.
func TestCorrectProtocolClean(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "consensus", "-n", "2", "-depth", "10"}, &out); err != nil {
		t.Fatalf("consensus should check clean: %v\n%s", err, out.String())
	}
}

// TestWitnessRoundTrip dumps the falsification run's violating schedules to
// a witness file and replays them: every recorded schedule must reproduce
// its violation.
func TestWitnessRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "witness.json")
	var out bytes.Buffer
	err := run([]string{"-protocol", "firstvalue-consensus", "-n", "2", "-depth", "12", "-witness", path}, &out)
	if err == nil {
		t.Fatal("expected a violations error for the 1-register protocol")
	}
	if !bytes.Contains(out.Bytes(), []byte("wrote 3 violation(s)")) {
		t.Fatalf("witness write not reported:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-replay", path}, &out); err != nil {
		t.Fatalf("replay failed: %v\n%s", err, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("all 3 violation(s) reproduced")) {
		t.Fatalf("replay verdict missing:\n%s", out.String())
	}
}

// TestReplayMissingWitness keeps the failure loud.
func TestReplayMissingWitness(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-replay", filepath.Join(t.TempDir(), "nope.json")}, &out); err == nil {
		t.Fatal("missing witness accepted")
	}
}

func TestFuzzMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "consensus", "-n", "2", "-fuzz", "20"}, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("best adversary")) {
		t.Errorf("fuzz mode output missing summary:\n%s", out.String())
	}
}

// TestSearchBoundsBelowOneAreUsageErrors: -depth, -maxruns and -maxviol
// below 1 are usage errors (exit 2) that search nothing and write no
// witness. Options reads 0 as "default", so a value below 1 used to search
// under the default bound while the report and the witness echoed the flag.
func TestSearchBoundsBelowOneAreUsageErrors(t *testing.T) {
	for _, bound := range [][]string{
		{"-depth", "-3"}, {"-depth", "0"},
		{"-maxruns", "0"}, {"-maxruns", "-1"},
		{"-maxviol", "0"}, {"-maxviol", "-2"},
	} {
		witness := filepath.Join(t.TempDir(), "w.json")
		var out bytes.Buffer
		args := append([]string{"-protocol", "firstvalue-consensus", "-n", "3", "-witness", witness}, bound...)
		err := run(args, &out)
		if !harness.IsUsage(err) {
			t.Errorf("%v: want a usage error, got %v", bound, err)
		}
		if out.Len() > 0 {
			t.Errorf("%v: searched anyway:\n%s", bound, out.String())
		}
		if _, serr := os.Stat(witness); serr == nil {
			t.Errorf("%v: wrote a witness", bound)
		}
	}
}
