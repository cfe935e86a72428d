package trace

import (
	"fmt"
	"hash/maphash"
	"strings"
	"sync/atomic"
	"testing"

	"revisionist/internal/algorithms"
	"revisionist/internal/proto"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// restorableSystem assembles a fully stateful-capable System over a protocol
// instance: machines, task-free check, configuration fingerprint and an
// in-place restore — the same wiring the harness installs.
func restorableSystem(snap *shmem.MWSnapshot, res *proto.RunResult,
	machines []sched.Machine, check func(res *proto.RunResult) error) System {
	var fp sched.FP
	return System{
		Machines: machines,
		Check: func(*sched.Result) error {
			return check(res)
		},
		Fingerprint: func(h *maphash.Hash) {
			fp.Reset()
			snap.AppendFingerprint(&fp, nil)
			for _, mc := range machines {
				mc.(sched.Fingerprinter).AppendFingerprint(&fp, nil)
			}
			h.Write(fp.Bytes())
		},
		Restore: func(from System) { proto.RestoreMachines(machines, from.Machines) },
	}
}

// consensusAgreeFactory builds an n-process consensus system checked for
// agreement over the done outputs.
func consensusAgreeFactory(n int) Factory {
	return func(gate sched.Stepper) System {
		inputs := make([]proto.Value, n)
		for i := range inputs {
			inputs[i] = 100 + i
		}
		procs, m, err := algorithms.NewConsensus(n, inputs)
		if err != nil {
			panic(err)
		}
		res := proto.NewRunResult(n)
		snap := shmem.NewMWSnapshot("M", gate, m, nil)
		return restorableSystem(snap, res, proto.Machines(procs, snap, res), agreement)
	}
}

// agreement fails a run whose done processes output different values.
func agreement(res *proto.RunResult) error {
	var first proto.Value
	for _, v := range res.DoneOutputs() {
		if first == nil {
			first = v
		} else if v != first {
			return fmt.Errorf("disagreement: %v vs %v", first, v)
		}
	}
	return nil
}

// firstValueFactory builds n FirstValue processes racing on one component,
// with no violating checks (the trivial task).
func firstValueFactory(n int) Factory {
	return func(gate sched.Stepper) System {
		procs := make([]proto.Process, n)
		for i := range procs {
			procs[i] = algorithms.NewFirstValue(0, 100+i)
		}
		res := proto.NewRunResult(n)
		snap := shmem.NewMWSnapshot("M", gate, 1, nil)
		return restorableSystem(snap, res, proto.Machines(procs, snap, res),
			func(*proto.RunResult) error { return nil })
	}
}

// TestStatefulAblationMatchesPlain runs the pruned explorer against the
// plain one at one and eight workers: pruned runs must preserve the
// Exhausted flag and violation presence and find no more schedules.
func TestStatefulAblationMatchesPlain(t *testing.T) {
	for _, c := range []struct {
		name    string
		nprocs  int
		factory Factory
		opts    ExploreOpts
	}{
		{"firstvalue-3", 3, firstValueFactory(3), ExploreOpts{MaxDepth: 20}},
		{"consensus-2", 2, consensusAgreeFactory(2), ExploreOpts{MaxDepth: 12}},
		{"consensus-2-capped", 2, consensusAgreeFactory(2), ExploreOpts{MaxDepth: 16, MaxRuns: 900}},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain, err := Explore(c.nprocs, c.factory, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				pr := c.opts
				pr.Prune = true
				pr.Workers = workers
				prRep, err := Explore(c.nprocs, c.factory, pr)
				if err != nil {
					t.Fatal(err)
				}
				// Exhausted must match — except that pruning may finish a
				// space the plain search's MaxRuns budget cut short.
				capped := c.opts.MaxRuns > 0 && plain.Runs >= c.opts.MaxRuns
				if prRep.Exhausted != plain.Exhausted && !(capped && prRep.Exhausted) {
					t.Fatalf("workers=%d: Exhausted diverges: %v vs %v", workers, prRep.Exhausted, plain.Exhausted)
				}
				if prRep.Runs > plain.Runs {
					t.Fatalf("workers=%d: pruned search ran more schedules (%d) than plain (%d)",
						workers, prRep.Runs, plain.Runs)
				}
				if len(prRep.Violations) > 0 != (len(plain.Violations) > 0) {
					t.Fatalf("workers=%d: violation presence diverges", workers)
				}
			}
		})
	}
}

// TestPruneRequiresCapabilities: Prune without a fingerprint or without a
// restore is a contract error, not a silent degradation; so is a job naming the
// retired goroutine engine. A journaled job re-runs through Explore without
// re-validation, so Explore itself must refuse it before building a system.
func TestPruneRequiresCapabilities(t *testing.T) {
	if _, err := Explore(2, counterSystem(nil), ExploreOpts{MaxDepth: 6, Prune: true}); err == nil ||
		!strings.Contains(err.Error(), "Fingerprint") {
		t.Fatalf("Prune without Fingerprint: got %v", err)
	}
	noRestore := func(gate sched.Stepper) System {
		sys := consensusAgreeFactory(2)(gate)
		sys.Restore = nil
		return sys
	}
	if _, err := Explore(2, noRestore, ExploreOpts{MaxDepth: 6, Prune: true}); err == nil ||
		!strings.Contains(err.Error(), "Restore") {
		t.Fatalf("Prune without Restore: got %v", err)
	}
	var built atomic.Int64
	counting := func(gate sched.Stepper) System {
		built.Add(1)
		return consensusAgreeFactory(2)(gate)
	}
	for _, prune := range []bool{false, true} {
		rep, err := Explore(2, counting, ExploreOpts{MaxDepth: 6, Prune: prune, Engine: "goroutine"})
		if err == nil || rep != nil || !strings.Contains(err.Error(), "goroutine") {
			t.Fatalf("prune=%v on the goroutine engine: got %+v, %v", prune, rep, err)
		}
	}
	if n := built.Load(); n != 0 {
		t.Fatalf("a rejected engine still built %d system(s)", n)
	}
	for _, engine := range []string{"", "seq"} {
		if _, err := Explore(2, counting, ExploreOpts{MaxDepth: 6, Prune: true, Engine: engine}); err != nil {
			t.Fatalf("Engine %q: %v", engine, err)
		}
	}
}

// TestSymmetryRequiresCapabilities: Symmetry without Prune, and Symmetry on
// a system exposing no CanonicalFingerprint, are contract errors, not silent
// degradations to plain pruning.
func TestSymmetryRequiresCapabilities(t *testing.T) {
	if _, err := Explore(2, consensusAgreeFactory(2),
		ExploreOpts{MaxDepth: 6, Symmetry: true}); err == nil ||
		!strings.Contains(err.Error(), "Prune") {
		t.Fatalf("Symmetry without Prune: got %v", err)
	}
	// consensusAgreeFactory wires Fingerprint and Restore but no canonical hook.
	if _, err := Explore(2, consensusAgreeFactory(2),
		ExploreOpts{MaxDepth: 6, Prune: true, Symmetry: true}); err == nil ||
		!strings.Contains(err.Error(), "CanonicalFingerprint") {
		t.Fatalf("Symmetry without CanonicalFingerprint: got %v", err)
	}
}

// shrinkingFactory builds two processes that each write a register twice,
// except that process 1 writes ops1(build) times: a nondeterministic factory
// whenever ops1 varies. builds counts constructions across workers.
func shrinkingFactory(ops1 func(build int64) int, builds *atomic.Int64) Factory {
	return func(gate sched.Stepper) System {
		reg := shmem.NewRegister("R", gate, nil)
		n1 := ops1(builds.Add(1) - 1)
		return System{
			Machines: sched.Processes(2, func(pid, i int) sched.Cursor {
				n := 2
				if pid == 1 {
					n = n1
				}
				if i == n {
					return nil
				}
				return stepFunc(func() { reg.Write(pid, pid) })
			}),
			Check: func(*sched.Result) error { return nil },
		}
	}
}

// TestExploreDivergenceFails: a nondeterministic factory must fail the
// exploration with a descriptive replay-divergence error instead of silently
// mis-exploring (the old enabled[0] fallback).
func TestExploreDivergenceFails(t *testing.T) {
	var builds atomic.Int64
	shrink := func(b int64) int {
		if b >= 2 {
			return 1 // process 1 shrinks from the third construction on
		}
		return 2
	}
	_, err := Explore(2, shrinkingFactory(shrink, &builds), ExploreOpts{MaxDepth: 10, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("want replay-divergence error, got %v", err)
	}
}

// TestExploreDivergenceFailsOnEveryPath pins the Factory promise at several
// worker counts: whichever build first replays a pick of a process that has
// no operations there — a frontier probe or a subtree run — the search fails
// with the divergence instead of exploring a different tree. Build 2 alone
// is a frontier probe at two and four workers, and no later build diverges.
func TestExploreDivergenceFailsOnEveryPath(t *testing.T) {
	emptyIf := func(shrunk func(int64) bool) func(int64) int {
		return func(b int64) int {
			if shrunk(b) {
				return 0
			}
			return 2
		}
	}
	cases := map[string]func(int64) int{
		"only build 2": emptyIf(func(b int64) bool { return b == 2 }),
	}
	for _, k := range []int64{2, 3, 5} {
		cases[fmt.Sprintf("from build %d", k)] = emptyIf(func(b int64) bool { return b >= k })
	}
	for name, ops1 := range cases {
		for _, workers := range []int{1, 2, 4} {
			var builds atomic.Int64
			_, err := Explore(2, shrinkingFactory(ops1, &builds), ExploreOpts{MaxDepth: 10, Workers: workers})
			if err == nil || !strings.Contains(err.Error(), "diverged") {
				t.Errorf("%s, workers=%d: want replay-divergence error, got %v", name, workers, err)
			}
		}
	}
}

// TestRunSubtreeRootNotEnabled: a leased root whose pick is not enabled is a
// replay divergence, and merging the outcome fails the search with it.
func TestRunSubtreeRootNotEnabled(t *testing.T) {
	var builds atomic.Int64
	none := func(int64) int { return 0 }
	opts := ExploreOpts{MaxDepth: 10}
	o, err := RunSubtree(2, shrinkingFactory(none, &builds), opts, []int{1}, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(o.RunErr, "diverged") {
		t.Fatalf("want a replay-divergence run error, got %+v", o)
	}
	w := NewWaves([][]int{{1}}, 1, opts)
	if !w.Add(0, o) {
		t.Fatal("a failed run must complete the search")
	}
	if _, err := w.Merge(false); err == nil ||
		!strings.Contains(err.Error(), "diverged") {
		t.Fatalf("merge: want replay-divergence error, got %v", err)
	}
}
