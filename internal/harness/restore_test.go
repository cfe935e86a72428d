package harness

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"revisionist/internal/protocol"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
	"revisionist/internal/trace"
)

// TestExploreAllocsPerRun bounds the heap allocations per explored run of
// three searches of the perfbench pool, at one worker: an explorer restores
// one live system per run instead of building or copying one, and its engine
// returns the same Result every run, so a run costs a handful of allocations
// (boxed register values) and a regression that rebuilds systems or copies
// scan views shows up here. The unpruned search resumes from checkpoints
// too, so it no longer replays (and re-boxes) each schedule's prefix from
// the initial configuration. The bounds sit over the measured 0.71 / 0.80 /
// 1.61; the unpruned one fails a search that replays from the root (7.1) or
// an engine that allocates a Result per run (1.7), and the pruned ones fail
// a search that builds an explorer per subtree instead of per worker
// (1.34 / 4.39).
func TestExploreAllocsPerRun(t *testing.T) {
	for _, c := range []struct {
		name  string
		opts  Options
		bound float64
	}{
		{"consensus-n3-d11-unpruned", Options{Protocol: "consensus", Params: protocol.Params{N: 3}, MaxDepth: 11}, 1},
		{"consensus-n3-d16-pruned", Options{Protocol: "consensus", Params: protocol.Params{N: 3}, MaxDepth: 16, Prune: true}, 1},
		{"aan-n3-d16-symmetry", Options{Protocol: "aan", Params: protocol.Params{N: 3}, MaxDepth: 16, Prune: true, Symmetry: true}, 2},
	} {
		c.opts.Workers = 1
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := Check(c.opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !rep.Explore.Exhausted {
			t.Fatalf("%s: search not exhausted: %+v", c.name, rep.Explore)
		}
		perRun := float64(after.Mallocs-before.Mallocs) / float64(rep.Explore.Runs)
		t.Logf("%s: %d runs, %.2f allocations per run", c.name, rep.Explore.Runs, perRun)
		if perRun > c.bound {
			t.Errorf("%s: %.2f allocations per run, bound %.0f", c.name, perRun, c.bound)
		}
	}
}

// TestPrunedFingerprintsPerRun bounds the configuration fingerprints a
// pruned search computes per run, at one worker and at two. Each visited
// decision node needs one: a run resumed from a checkpoint reuses the
// fingerprint, and the lookup verdict, its checkpoint's node got when the
// path first reached it. A search that hashes and looks up the checkpoint's
// configuration again reads 2.07 / 2.29 / 2.92 here; this one about 1.07 /
// 1.29 / 1.94. The reports are pinned too, since the reuse must not change
// them.
func TestPrunedFingerprintsPerRun(t *testing.T) {
	for _, c := range []struct {
		name                   string
		opts                   Options
		bound                  float64
		runs, pruned, distinct int
	}{
		{"consensus-n3-d16-prune", Options{Protocol: "consensus", Params: protocol.Params{N: 3}, MaxDepth: 16, Prune: true}, 1.5, 24313, 11718, 3610},
		{"kset-n4-k3-d20-prune", Options{Protocol: "kset", Params: protocol.Params{N: 4, K: 3}, MaxDepth: 20, Prune: true}, 1.5, 19590, 13057, 2323},
		{"aan-n3-d16-symmetry", Options{Protocol: "aan", Params: protocol.Params{N: 3}, MaxDepth: 16, Prune: true, Symmetry: true}, 2.5, 3953, 3544, 1293},
	} {
		pr, p, err := c.opts.resolve()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		base := factory(pr, p)
		var calls atomic.Int64
		counted := func(gate sched.Stepper) trace.System {
			sys := base(gate)
			fp, cf := sys.Fingerprint, sys.CanonicalFingerprint
			sys.Fingerprint = func(h *maphash.Hash) { calls.Add(1); fp(h) }
			sys.CanonicalFingerprint = func(h *maphash.Hash) uint64 { calls.Add(1); return cf(h) }
			return sys
		}
		for _, workers := range []int{1, 2} {
			calls.Store(0)
			opts := exploreOpts(c.opts)
			opts.Workers = workers
			rep, err := trace.Explore(p.N, counted, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if rep.Runs != c.runs || rep.Pruned != c.pruned || rep.Distinct != c.distinct || !rep.Exhausted {
				t.Errorf("%s workers=%d: runs/pruned/distinct %d/%d/%d (exhausted %v), want %d/%d/%d exhausted",
					c.name, workers, rep.Runs, rep.Pruned, rep.Distinct, rep.Exhausted, c.runs, c.pruned, c.distinct)
			}
			perRun := float64(calls.Load()) / float64(rep.Runs)
			t.Logf("%s workers=%d: %d fingerprints, %.2f per run", c.name, workers, calls.Load(), perRun)
			if perRun >= c.bound {
				t.Errorf("%s workers=%d: %.2f fingerprints per run, bound %.1f", c.name, workers, perRun, c.bound)
			}
		}
	}
}

// restoreProbe is the strategy of TestRestoreEquivalence: it drives a seeded
// random schedule on a live system and, at every decision point, takes a
// checkpoint — a system restored from the live one plus the engine's
// scheduling state — and checks that it fingerprints as the live one does.
type restoreProbe struct {
	t        *testing.T
	name     string
	factory  trace.Factory
	live     trace.System
	eng      *sched.SeqEngine
	rng      *rand.Rand
	maxSteps int
	h        maphash.Hash

	picks []int
	saved []restorePoint
}

// restorePoint is one checkpoint of the probed run.
type restorePoint struct {
	step int
	sys  trace.System
	cp   *sched.SeqCheckpoint
	fp   string
}

func (s *restoreProbe) Pick(step int, enabled []int) int {
	if step >= s.maxSteps {
		return sched.Halt
	}
	fp := s.fingerprint(s.live)
	sys := s.factory(shmem.Free{})
	sys.Restore(s.live)
	if got := s.fingerprint(sys); got != fp {
		s.t.Errorf("%s step %d: a system restored from the live one fingerprints %s, the live one %s", s.name, step, got, fp)
	}
	cp := new(sched.SeqCheckpoint)
	s.eng.CheckpointInto(cp)
	s.saved = append(s.saved, restorePoint{step: step, sys: sys, cp: cp, fp: fp})
	pick := enabled[s.rng.Intn(len(enabled))]
	s.picks = append(s.picks, pick)
	return pick
}

// fingerprint renders both of sys's fingerprints.
func (s *restoreProbe) fingerprint(sys trace.System) string {
	s.h.Reset()
	sys.Fingerprint(&s.h)
	plain := s.h.Sum64()
	return fmt.Sprintf("%x/%x", plain, sys.CanonicalFingerprint(&s.h))
}

// rerun restores the live system from from, runs the recorded schedule on
// it from checkpoint cp (nil: from the start), and returns the final
// fingerprint and check outcome.
func (s *restoreProbe) rerun(from trace.System, cp *sched.SeqCheckpoint) (string, string) {
	s.live.Restore(from)
	s.eng.Restart(sched.Replay{Choices: s.picks}, cp)
	res, err := s.eng.RunMachines(s.live.Machines)
	if err != nil && !IsStarved(err) {
		s.t.Fatalf("%s: resumed run: %v", s.name, err)
	}
	return s.fingerprint(s.live), fmt.Sprint(s.live.Check(res))
}

// TestRestoreEquivalence pins System.Restore for every registered protocol
// along a seeded schedule. At every decision point a system restored from
// the live one fingerprints as the live one. After the live system has run
// on, restoring it back from each checkpoint reproduces the fingerprint
// recorded there, and resuming the schedule from it reproduces the run's
// final fingerprint and check outcome. A system restored from the initial
// configuration matches a freshly built one, and reruns the schedule
// identically.
func TestRestoreEquivalence(t *testing.T) {
	for i, pr := range protocol.Protocols() {
		t.Run(pr.Name, func(t *testing.T) {
			p, err := pr.Resolve(protocol.Params{})
			if err != nil {
				t.Fatal(err)
			}
			f := factory(pr, p)
			s := &restoreProbe{t: t, name: pr.Name, factory: f, rng: rand.New(rand.NewSource(int64(i) + 1)),
				maxSteps: 60, h: sched.NewFingerprintHash()}
			s.eng = sched.NewSeqEngine(p.N, s)
			s.live = f(s.eng)
			root := f(shmem.Free{})
			res, err := s.eng.RunMachines(s.live.Machines)
			if err != nil && !IsStarved(err) {
				t.Fatal(err)
			}
			wantFp, wantCheck := s.fingerprint(s.live), fmt.Sprint(s.live.Check(res))
			if len(s.saved) < 2 {
				t.Fatalf("the run made %d scheduling decisions, want several", len(s.saved))
			}
			t.Logf("%d decision points, final configuration %s", len(s.saved), wantFp)
			for j := len(s.saved) - 1; j >= 0; j-- {
				pt := s.saved[j]
				s.live.Restore(pt.sys)
				if got := s.fingerprint(s.live); got != pt.fp {
					t.Fatalf("step %d: restored from its checkpoint the live system fingerprints %s, want %s", pt.step, got, pt.fp)
				}
				if fp, chk := s.rerun(pt.sys, pt.cp); fp != wantFp || chk != wantCheck {
					t.Fatalf("step %d: resumed run ends at %s (check %s), the original at %s (check %s)", pt.step, fp, chk, wantFp, wantCheck)
				}
			}
			s.live.Restore(root)
			if got, want := s.fingerprint(s.live), s.fingerprint(f(shmem.Free{})); got != want {
				t.Fatalf("restored from the root the live system fingerprints %s, a fresh one %s", got, want)
			}
			if fp, chk := s.rerun(root, nil); fp != wantFp || chk != wantCheck {
				t.Fatalf("rerun from the root ends at %s (check %s), the original at %s (check %s)", fp, chk, wantFp, wantCheck)
			}
		})
	}
}
