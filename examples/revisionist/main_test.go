package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputGolden pins the demo's output: every run in it is seeded, so
// the text is the same on every machine. `make examples-smoke` diffs the
// same file against `go run ./examples/revisionist`.
func TestOutputGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "output.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/output.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
