package augsnap

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFingerprintStreamGolden pins the fingerprint byte stream of the
// augmented snapshot after a seeded workload, over the atomic and the
// register-built store: the plain stream and the stream under the element
// swapping the two processes and the M component each owns, hex-encoded. No
// registered protocol runs on an augmented snapshot, so the protocol golden
// of the harness does not reach these encoders. Rewrite with go test -run
// Golden -update.
func TestFingerprintStreamGolden(t *testing.T) {
	const f, m, ops, seed = 2, 2, 2, 1
	swap, err := sched.NewCanonicalizer(sched.SymmetrySpec{N: f, Classes: [][]int{{0, 1}}, Owned: [][]int{{0}, {1}}})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "# Augmented-snapshot fingerprint streams: f=%d m=%d, %d operations per process, seed %d.\n", f, m, ops, seed)
	for _, store := range []string{"atomic", "registers"} {
		runner := sched.NewSeqEngine(f, sched.NewRandom(seed), sched.WithMaxSteps(1<<22))
		var a *AugSnapshot
		if store == "atomic" {
			a = New(runner, f, m)
		} else {
			a = NewOver(shmem.NewRegSWSnapshot("H", runner, f, HComp{}), f, m)
		}
		runWorkload(t, runner, a, f, m, ops, seed)
		var fp sched.FP
		a.AppendFingerprint(&fp, nil)
		plain := slices.Clone(fp.Bytes())
		var streams [][]byte // one per group element, the identity first
		swap.Canonical(&fp, func(fp *sched.FP, c *sched.Canon) {
			a.AppendFingerprint(fp, c)
			streams = append(streams, slices.Clone(fp.Bytes()))
		})
		if len(streams) != 2 || !bytes.Equal(streams[0], plain) {
			t.Fatalf("%s: the swap group encoded %d streams, want 2 with the identity's first", store, len(streams))
		}
		fmt.Fprintf(&out, "%s plain %s\n", store, hex.EncodeToString(plain))
		fmt.Fprintf(&out, "%s swapped %s\n", store, hex.EncodeToString(streams[1]))
	}
	path := filepath.Join("testdata", "fingerprint_streams.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run Golden -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("fingerprint streams differ from %s:\n%s", path, out.Bytes())
	}
}
