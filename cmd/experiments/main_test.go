package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
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

// TestT1Golden pins the Corollary 33 bound table (deterministic, no runs).
func TestT1Golden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-section", "t1"}, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "t1.golden", out.Bytes())
}

// TestE3E4Golden pins the augmented-snapshot step-count and yield tables.
// The stress workloads are seeded and merged in seed order, so the output is
// the same at every worker count.
func TestE3E4Golden(t *testing.T) {
	for _, section := range []string{"e3", "e4"} {
		for _, workers := range []string{"1", "2"} {
			var out bytes.Buffer
			if err := run([]string{"-section", section, "-workers", workers}, &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, section+".golden", out.Bytes())
		}
	}
}

// TestE5Golden pins the harness-driven simulation experiment.
func TestE5Golden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-section", "e5"}, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e5.golden", out.Bytes())
}

// TestE10Golden pins the symmetry-reduction table: the run and distinct-state
// counts are seed-independent (only fingerprint equality is ever used), so
// the orbit-collapse ratios are exact across machines.
func TestE10Golden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-section", "e10"}, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e10.golden", out.Bytes())
}

// TestE9Golden pins the state-pruning table at one and two workers: a
// pruned report does not depend on the worker count.
func TestE9Golden(t *testing.T) {
	for _, workers := range []string{"1", "2"} {
		var out bytes.Buffer
		if err := run([]string{"-section", "e9", "-workers", workers}, &out); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "e9.golden", out.Bytes())
	}
}

// TestSectionGoldens pins the remaining sections: the layout figure, the
// approximate-agreement table and the seeded simulation, falsification,
// conversion and upper-bound experiments.
func TestSectionGoldens(t *testing.T) {
	for _, section := range []string{"f1", "t2", "e5b", "e6", "e7", "e8"} {
		t.Run(section, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-section", section}, &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, section+".golden", out.Bytes())
		})
	}
}

func TestUnknownSectionIsUsageError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-section", "zzz"}, &out); err == nil {
		t.Fatal("expected usage error for unknown section")
	}
}
