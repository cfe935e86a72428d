package wire_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"revisionist/internal/dist/wire"
	"revisionist/internal/harness"
	"revisionist/internal/protocol"
	"revisionist/internal/trace"
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
		t.Errorf("frames differ from %s (re-run with -update to accept):\n--- got ---\n%q\n--- want ---\n%q", path, got, want)
	}
}

// frames encodes msgs exactly as Conn.Send puts them on the wire.
func frames(t *testing.T, msgs ...*wire.Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := wire.NewConn(&buf)
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// prunedOutcome explores one real subtree of a pruned, budgeted search with
// violations, on a violation base of 1: the outcome carries violations,
// stops at the violation cutoff and carries closures. Fingerprints are seeded per process, so each closure's Fp is
// replaced by its rank among the closures, in (Rem, Fp) order: the rest of
// the outcome is a pure function of the subtree and pinned as is.
func prunedOutcome(t *testing.T) *trace.SubtreeOutcome {
	t.Helper()
	job, err := harness.CheckJob(harness.Options{
		Protocol: "firstvalue-consensus", Params: protocol.Params{N: 2},
		MaxDepth: 12, MaxRuns: 300, MaxViolations: 3, Prune: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	nprocs, factory, err := harness.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	o, err := trace.RunSubtree(nprocs, factory, job.Opts, []int{0}, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Violations) == 0 || len(o.Closures) == 0 || !o.ViolCut {
		t.Fatalf("outcome lacks the fields the golden pins: %+v", o)
	}
	sort.Slice(o.Closures, func(i, j int) bool {
		a, b := o.Closures[i], o.Closures[j]
		return a.Rem < b.Rem || (a.Rem == b.Rem && a.Fp < b.Fp)
	})
	for i := range o.Closures {
		o.Closures[i].Fp = uint64(i)
	}
	return o
}

// TestResultFrameGolden pins the bytes of Result frames: one carrying a real
// pruned subtree outcome, one hand-built with every wire field set, a failed
// run included. Coordinators and workers of one wire version must agree on them
// exactly.
func TestResultFrameGolden(t *testing.T) {
	full := &trace.SubtreeOutcome{
		Runs: 9, Truncated: 2, Exhausted: false, Pruned: 3, Distinct: 4,
		Violations: []trace.SubtreeViolation{{Schedule: []int{0, 2, 1}, Err: "agreement violated: outputs [0 1]"}},
		ViolCut:    true,
		RunErr:     "trace: run failed on schedule [0 2 1 1]: boom",
		Closures:   []trace.FpEntry{{Fp: 7, Rem: 3}, {Fp: 1 << 62, Rem: 1}},
		Stopped:    true,
	}
	checkGolden(t, "result.golden", frames(t,
		&wire.Msg{Kind: wire.KindResult, Result: &wire.Result{Job: "j0003", ID: 1, Outcome: prunedOutcome(t)}},
		&wire.Msg{Kind: wire.KindResult, Result: &wire.Result{Job: "j0003", ID: 5, Outcome: full}},
	))
}

// TestLeaseFrameGolden pins the bytes of a Lease frame shipping a
// visited-state table delta: a real subtree's closures, ranked as above.
func TestLeaseFrameGolden(t *testing.T) {
	delta := prunedOutcome(t).Closures
	checkGolden(t, "lease.golden", frames(t,
		&wire.Msg{Kind: wire.KindLease, Lease: &wire.Lease{Job: "j0003", ID: 9, Root: []int{1, 0}, Base: 57, ViolBase: 4, Table: delta}},
	))
}
