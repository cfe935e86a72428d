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

// TestStressGolden pins a small deterministic stress run.
func TestStressGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-f", "2", "-m", "2", "-ops", "4", "-seeds", "10"}, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stress.golden", out.Bytes())
}

// TestUnknownEngineIsUsageError: there is one engine and no -engine flag,
// so naming any engine on the command line is a usage error.
func TestUnknownEngineIsUsageError(t *testing.T) {
	for _, engine := range []string{"bogus", "seq", "goroutine"} {
		var out bytes.Buffer
		if err := run([]string{"-engine", engine}, &out); !harness.IsUsage(err) {
			t.Fatalf("-engine %s: got %v, want usage error", engine, err)
		}
	}
}
