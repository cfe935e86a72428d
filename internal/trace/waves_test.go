package trace_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"revisionist/internal/harness"
	"revisionist/internal/protocol"
	"revisionist/internal/trace"
)

// wavesParams returns per-protocol parameters small enough that an
// exploration at modest depth finishes quickly.
func wavesParams(name string) protocol.Params {
	switch name {
	case "consensus", "paxos", "firstvalue-consensus", "aan":
		return protocol.Params{N: 2}
	case "firstvalue", "singleton":
		return protocol.Params{N: 3}
	case "kset":
		return protocol.Params{N: 3, K: 2}
	case "lane-kset":
		return protocol.Params{N: 3, K: 2, X: 1}
	default:
		return protocol.Params{}
	}
}

// delivery is one outcome arriving at the wave protocol.
type delivery struct {
	id int
	o  *trace.SubtreeOutcome
}

// driveShuffled drives the wave protocol the way a coordinator with a
// misbehaving fleet sees it. Each pass over a wave runs every open subtree
// on the bases Waves gives before any of the pass's outcomes is in — lower
// bounds — against a mirror of the table frozen at the wave start, and the
// outcomes arrive shuffled, some twice, interleaved with stale outcomes of
// earlier passes. Passes repeat until the window moves, running the subtrees
// the protocol re-opened, which now have exact bases and must never re-open
// again. At every barrier the state is snapshotted and restored into a fresh
// Waves, which must reproduce the window, bases and join log exactly and
// carries on. It returns the merged report and error and how many subtrees
// re-opened.
func driveShuffled(t *testing.T, nprocs int, factory trace.Factory, opts trace.ExploreOpts, rng *rand.Rand) (*trace.ExploreReport, int, error) {
	t.Helper()
	frontier, width, err := trace.SubtreePlan(nprocs, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWaves(frontier, width, opts)
	mirror, synced := trace.StateTable{}, 0
	var past []delivery // outcomes of earlier passes, redelivered as stale
	ran := make([]bool, len(frontier))
	reopens := 0
	for complete := false; !complete; {
		for _, e := range w.Log()[synced:] {
			mirror.Join(e)
		}
		synced = len(w.Log())
		frozen := func(fp uint64) (int, bool) { rem, ok := mirror[fp]; return rem, ok }
		lo, hi := w.Window()
		var batch []delivery
		var reruns []int
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
			o, err := trace.RunSubtree(nprocs, factory, opts, frontier[i], runs, viols, frozen)
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, delivery{i, o})
			if rng.IntN(3) == 0 {
				batch = append(batch, delivery{i, o}) // a re-leased duplicate
			}
		}
		if len(batch) == 0 {
			t.Fatalf("wave at subtree %d has no open subtree but did not advance", lo)
		}
		// Stale outcomes come first: one of the wave that overshot must not
		// clear the exact re-run it raced.
		stale := make([]delivery, 0, 3)
		for k := 0; k < len(past) && k < 3; k++ {
			stale = append(stale, past[rng.IntN(len(past))])
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		for _, d := range append(stale, batch...) {
			if w.Add(d.id, d.o) {
				complete = true
			}
		}
		past = append(past, batch...)
		for _, i := range reruns {
			if w.Open(i) {
				t.Fatalf("subtree %d re-opened after a re-run on exact bases", i)
			}
		}
		next, _ := w.Window()
		if complete || next == lo {
			continue
		}
		// Snapshot at the barrier and resume from it.
		r := trace.NewWaves(frontier, width, opts)
		restored, done := r.Restore(w.Outcomes())
		if done {
			t.Fatal("a mid-search snapshot restored as complete")
		}
		rlo, rhi := r.Window()
		rruns, rviols := r.Base(rlo)
		wruns, wviols := w.Base(next)
		if rlo != next || restored != next || !reflect.DeepEqual(r.Log(), w.Log()) ||
			rruns != wruns || rviols != wviols {
			t.Fatalf("restore at barrier %d: window [%d,%d) bases %d/%d, %d restored, log %d entries; want window at %d bases %d/%d, log %d entries",
				next, rlo, rhi, rruns, rviols, restored, len(r.Log()), next, wruns, wviols, len(w.Log()))
		}
		w = r
	}
	rep, err := w.Merge(false)
	return rep, reopens, err
}

// TestWavesArrivalOrder drives the wave protocol with outcomes in shuffled
// order, duplicated, mixed with stale ones and restored from a snapshot at
// every barrier, for every registered protocol — plain, pruned and
// symmetry-reduced — and requires the sequential Explore report. Some
// budget or violation cutoff must land past a lower bound and re-open the
// subtree it lands in.
func TestWavesArrivalOrder(t *testing.T) {
	modes := []struct {
		tag             string
		prune, symmetry bool
	}{
		{"plain", false, false},
		{"prune", true, false},
		{"symmetry", true, true},
	}
	reopens := 0
	for _, pr := range protocol.Protocols() {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", pr.Name, mode.tag), func(t *testing.T) {
				job, err := harness.CheckJob(harness.Options{
					Protocol: pr.Name, Params: wavesParams(pr.Name),
					MaxDepth: 10, MaxRuns: 4000, MaxViolations: 3,
					Prune: mode.prune, Symmetry: mode.symmetry,
				})
				if err != nil {
					t.Fatal(err)
				}
				nprocs, factory, err := harness.Resolve(job)
				if err != nil {
					t.Fatal(err)
				}
				reopens += matchShuffled(t, nprocs, factory, job.Opts)
			})
		}
	}
	if reopens == 0 {
		t.Fatal("no subtree re-opened: no cutoff landed past a lower bound")
	}
}

// TestWavesArrivalOrderCutoffs drives the wave protocol as
// TestWavesArrivalOrder does through the cutoffs the registered protocols
// do not reach: a failed run after violations in several subtrees, and a
// violation cutoff past the first subtree, which must re-open the subtree
// it lands in.
func TestWavesArrivalOrderCutoffs(t *testing.T) {
	for _, prune := range []bool{false, true} {
		t.Run(fmt.Sprintf("error/prune=%v", prune), func(t *testing.T) {
			opts := trace.ExploreOpts{MaxDepth: 12, MaxViolations: 30, Prune: prune}
			matchShuffled(t, 3, trace.FirstValueAgree(3, true), opts)
		})
		t.Run(fmt.Sprintf("viol/prune=%v", prune), func(t *testing.T) {
			opts := trace.ExploreOpts{MaxDepth: 12, MaxViolations: 10, Prune: prune}
			if matchShuffled(t, 3, trace.FirstValueAgree(3, false), opts) == 0 {
				t.Fatal("no subtree re-opened")
			}
		})
	}
}

// matchShuffled requires driveShuffled, under two seeds, to report exactly
// what a one-worker Explore reports, error included, and returns how many
// subtrees it re-opened.
func matchShuffled(t *testing.T, nprocs int, factory trace.Factory, opts trace.ExploreOpts) (reopens int) {
	t.Helper()
	seq := opts
	seq.Workers = 1
	want, wantErr := trace.Explore(nprocs, factory, seq)
	for seed := uint64(1); seed <= 2; seed++ {
		got, n, gotErr := driveShuffled(t, nprocs, factory, opts, rand.New(rand.NewPCG(seed, 0)))
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("seed %d: error %v, want %v", seed, gotErr, wantErr)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("seed %d: report diverges:\nwant %+v\ngot  %+v", seed, want, got)
		}
		reopens += n
	}
	return reopens
}
