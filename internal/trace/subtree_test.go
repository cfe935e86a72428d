package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"revisionist/internal/algorithms"
	"revisionist/internal/proto"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// driveSubtrees replays the distributed coordinator's protocol in-process
// and single-threaded. Each pass over a wave runs every open subtree on the
// bases Waves gives before any of the pass's outcomes is in — lower bounds,
// as a fleet's concurrent leases see them — against a mirror of the table
// frozen at the wave start, and adds the outcomes in reverse order. Passes
// repeat until the window moves, running the subtrees the protocol
// re-opened, which now have exact bases and must never re-open again. It
// returns the merged report, its error, and how many subtrees re-opened.
func driveSubtrees(t *testing.T, nprocs int, factory Factory, opts ExploreOpts) (*ExploreReport, int, error) {
	t.Helper()
	frontier, width, err := SubtreePlan(nprocs, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWaves(frontier, width, opts)
	mirror, synced := StateTable{}, 0
	ran := make([]bool, len(frontier))
	reopens := 0
	for complete := false; !complete; {
		for _, e := range w.Log()[synced:] {
			mirror.Join(e)
		}
		synced = len(w.Log())
		lo, hi := w.Window()
		var ids, reruns []int
		var outs []*SubtreeOutcome
		for i := lo; i < hi; i++ {
			if !w.Open(i) {
				continue
			}
			if ran[i] {
				reopens++
				reruns = append(reruns, i)
			}
			ran[i] = true
			runs, viols := w.Base(i)
			o, err := RunSubtree(nprocs, factory, opts, frontier[i], runs, viols, mirror.lookup)
			if err != nil {
				t.Fatal(err)
			}
			ids, outs = append(ids, i), append(outs, o)
		}
		if len(ids) == 0 {
			t.Fatalf("wave at subtree %d has no open subtree but did not advance", lo)
		}
		for k := len(ids) - 1; k >= 0; k-- {
			complete = w.Add(ids[k], outs[k]) || complete
		}
		for _, i := range reruns {
			if w.Open(i) {
				t.Fatalf("subtree %d re-opened after a re-run on exact bases", i)
			}
		}
	}
	rep, err := w.Merge(false)
	if err != nil && (rep == nil || errors.Is(err, ErrInterrupted)) {
		t.Fatal(err)
	}
	return rep, reopens, err
}

// firstValueAgree is firstValueFactory checked for agreement: processes that
// both write before either scans again disagree, so violations are dense.
// With poison set, process 1 also panics when a scan shows process 2's
// input, a run error that only some schedules reach. Its systems fingerprint
// and restore, so a pruned search reaches both.
func firstValueAgree(n int, poison bool) Factory {
	return func(gate sched.Stepper) System {
		procs := make([]proto.Process, n)
		for i := range procs {
			procs[i] = algorithms.NewFirstValue(0, 100+i)
		}
		if poison {
			procs[1] = &poisoned{procs[1].(*algorithms.FirstValue)}
		}
		res := proto.NewRunResult(n)
		snap := shmem.NewMWSnapshot("M", gate, 1, nil)
		return restorableSystem(snap, res, proto.Machines(procs, snap, res), agreement)
	}
}

// poisoned is a FirstValue process that panics on scanning the value 102.
type poisoned struct{ *algorithms.FirstValue }

func (p *poisoned) ApplyScan(view []proto.Value) {
	if view[0] == 102 {
		panic("reached the poisoned interleaving")
	}
	p.FirstValue.ApplyScan(view)
}

func (p *poisoned) Clone() proto.Process {
	return &poisoned{p.FirstValue.Clone().(*algorithms.FirstValue)}
}

func (p *poisoned) RestoreFrom(src proto.Process) {
	p.FirstValue.RestoreFrom(src.(*poisoned).FirstValue)
}

// TestSubtreeHooksMatchExplore drives the exported lease/run/merge hooks the
// way a coordinator does, on lower bounds and out of order, and requires the
// exact Explore report and error — pruned and plain, exhaustive and cut by
// the budget, the violation cutoff and a failed run. The budget and
// violation cuts land past the first subtree, where the lower bounds fall
// short, so the subtree they land in must be re-opened and run again.
func TestSubtreeHooksMatchExplore(t *testing.T) {
	for _, c := range []struct {
		name    string
		nprocs  int
		factory Factory
		opts    ExploreOpts
		reopens bool
	}{
		{"firstvalue-3-plain", 3, firstValueFactory(3), ExploreOpts{MaxDepth: 12}, false},
		{"firstvalue-3-pruned", 3, firstValueFactory(3), ExploreOpts{MaxDepth: 12, Prune: true}, false},
		{"agree-3-viol", 3, firstValueAgree(3, false), ExploreOpts{MaxDepth: 12, MaxViolations: 10}, true},
		{"agree-3-pruned-viol", 3, firstValueAgree(3, false), ExploreOpts{MaxDepth: 12, MaxViolations: 10, Prune: true}, true},
		{"consensus-2-viol", 2, consensusAgreeFactory(2), ExploreOpts{MaxDepth: 12, MaxViolations: 3}, false},
		{"consensus-2-budget", 2, consensusAgreeFactory(2), ExploreOpts{MaxDepth: 16, MaxRuns: 900}, true},
		{"consensus-2-pruned-budget", 2, consensusAgreeFactory(2), ExploreOpts{MaxDepth: 16, MaxRuns: 900, Prune: true}, false},
		{"consensus-3-pruned-budget", 3, consensusAgreeFactory(3), ExploreOpts{MaxDepth: 12, MaxRuns: 900, Prune: true}, true},
		{"poisoned-3-error", 3, firstValueAgree(3, true), ExploreOpts{MaxDepth: 12, MaxViolations: 30}, false},
		{"poisoned-3-pruned-error", 3, firstValueAgree(3, true), ExploreOpts{MaxDepth: 12, MaxViolations: 30, Prune: true}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, wantErr := Explore(c.nprocs, c.factory, c.opts)
			got, reopens, gotErr := driveSubtrees(t, c.nprocs, c.factory, c.opts)
			if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
				t.Fatalf("hook-driven error %v, want %v", gotErr, wantErr)
			}
			if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
				t.Fatalf("hook-driven report diverges:\nwant %+v\ngot  %+v", want, got)
			}
			if c.reopens && reopens == 0 {
				t.Fatalf("no subtree re-opened: the cutoff never landed past a lower bound")
			}
		})
	}
}

// TestExploreInterrupted checks the graceful-interruption contract on every
// explorer path: once Interrupted flips, Explore stops and returns the
// partial report with ErrInterrupted instead of running to exhaustion.
func TestExploreInterrupted(t *testing.T) {
	for _, c := range []struct {
		name string
		opts ExploreOpts
	}{
		{"sequential", ExploreOpts{MaxDepth: 20, Workers: 1}},
		{"parallel", ExploreOpts{MaxDepth: 20, Workers: 4}},
		{"pruned", ExploreOpts{MaxDepth: 20, Workers: 4, Prune: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			full, err := Explore(4, firstValueFactory(4), ExploreOpts{MaxDepth: 20, Workers: 1, Prune: c.opts.Prune})
			if err != nil {
				t.Fatal(err)
			}
			// The interrupt fires only once subtree 0 has completed a run:
			// otherwise a worker pool that schedules subtree 0's worker late
			// merges an empty partial report.
			var polls atomic.Int64
			var leftmostDone atomic.Bool
			opts := c.opts
			opts.Interrupted = func() bool { return polls.Add(1) > 40 && leftmostDone.Load() }
			rep, err := Explore(4, leftmostChecked(4, firstValueFactory(4), &leftmostDone), opts)
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("want ErrInterrupted, got %v", err)
			}
			if rep == nil {
				t.Fatal("no partial report")
			}
			if rep.Exhausted || rep.Runs == 0 || rep.Runs >= full.Runs {
				t.Fatalf("implausible partial report %+v (full search: %d runs)", rep, full.Runs)
			}
		})
	}
}

// leftmostChecked wraps factory so that done flips once a system built by it
// has checked the leftmost schedule, the one that always picks the lowest
// enabled pid. That schedule is the first run of subtree 0 (frontier probes
// also run it, but a probe is never checked), and the first run of a subtree
// is never pruned, so done means subtree 0 has completed a run.
func leftmostChecked(n int, factory Factory, done *atomic.Bool) Factory {
	eng := sched.NewSeqEngine(n, sched.Lowest{})
	leftmost := &pidLog{gate: eng}
	if _, err := eng.RunMachines(factory(leftmost).Machines); err != nil {
		panic(err)
	}
	return func(gate sched.Stepper) System {
		log := &pidLog{gate: gate}
		sys := factory(log)
		if restore := sys.Restore; restore != nil {
			sys.Restore = func(from System) {
				restore(from)
				log.pids = log.pids[:0]
			}
		}
		check := sys.Check
		sys.Check = func(res *sched.Result) error {
			// A run resumed from a checkpoint logs only the steps past it,
			// and its Steps counts the checkpoint's too.
			if res.Steps == len(log.pids) && slices.Equal(log.pids, leftmost.pids) {
				done.Store(true)
			}
			return check(res)
		}
		return sys
	}
}

// pidLog is a Stepper that forwards every step to gate and logs its pid.
type pidLog struct {
	gate sched.Stepper
	pids []int
}

func (l *pidLog) Step(pid int, op sched.Op) {
	l.gate.Step(pid, op)
	l.pids = append(l.pids, pid)
}

// TestExploreInterruptedImmediately pins the degenerate case: a search
// cancelled before its first schedule still reports cleanly.
func TestExploreInterruptedImmediately(t *testing.T) {
	rep, err := Explore(3, firstValueFactory(3), ExploreOpts{
		MaxDepth: 10, Workers: 1, Interrupted: func() bool { return true },
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if rep == nil || rep.Runs != 0 || rep.Exhausted {
		t.Fatalf("bad empty partial report %+v", rep)
	}
}

// TestSubtreeRunnerMatchesRunSubtree runs every subtree of a plan on one
// SubtreeRunner, in reverse canonical order and each twice, on varying bases
// and against a populated frozen table, and requires each outcome to equal a
// one-shot RunSubtree's, in wire form: a reused explorer carries no state from one lease
// into the next, after a failed run and a violation cutoff included. The
// runner builds its systems once, the one-shots once per subtree.
func TestSubtreeRunnerMatchesRunSubtree(t *testing.T) {
	for _, c := range []struct {
		name    string
		nprocs  int
		factory Factory
		opts    ExploreOpts
	}{
		{"consensus-3-pruned", 3, consensusAgreeFactory(3), ExploreOpts{MaxDepth: 12, Prune: true}},
		{"agree-3-pruned-viol", 3, firstValueAgree(3, false), ExploreOpts{MaxDepth: 12, MaxViolations: 10, Prune: true}},
		{"consensus-2-budget", 2, consensusAgreeFactory(2), ExploreOpts{MaxDepth: 16, MaxRuns: 900}},
		{"poisoned-3-pruned-error", 3, firstValueAgree(3, true), ExploreOpts{MaxDepth: 12, MaxViolations: 30, Prune: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var built [2]atomic.Int64
			counted := func(k int) Factory {
				return func(gate sched.Stepper) System {
					built[k].Add(1)
					return c.factory(gate)
				}
			}
			frontier, _, err := SubtreePlan(c.nprocs, c.factory, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			// The frozen table holds the closures of the first subtree, as a
			// later wave's would.
			table := StateTable{}
			if c.opts.Prune {
				o, err := RunSubtree(c.nprocs, c.factory, c.opts, frontier[0], 0, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range o.Closures {
					table.Join(e)
				}
			}
			r, err := NewSubtreeRunner(c.nprocs, counted(0), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := len(frontier) - 1; i >= 0; i-- {
				for round := 0; round < 2; round++ {
					base, violBase := 7*i*round, i%2
					got, err := r.Run(frontier[i], base, violBase, table.lookup)
					if err != nil {
						t.Fatal(err)
					}
					want, err := RunSubtree(c.nprocs, counted(1), c.opts, frontier[i], base, violBase, table.lookup)
					if err != nil {
						t.Fatal(err)
					}
					g, _ := json.Marshal(got)
					w, _ := json.Marshal(want)
					if string(g) != string(w) {
						t.Fatalf("subtree %d round %d: runner outcome diverges:\nwant %s\ngot  %s", i, round, w, g)
					}
				}
			}
			if len(frontier) < 2 || built[0].Load() >= built[1].Load() {
				t.Fatalf("runner built %d systems over %d subtrees, one-shots %d", built[0].Load(), len(frontier), built[1].Load())
			}
		})
	}
}
