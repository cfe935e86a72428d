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
// misbehaving fleet sees it: each wave's open subtrees run against a mirror
// of the table frozen at the wave start, and their outcomes arrive shuffled,
// some twice, interleaved with stale outcomes of earlier waves. At every
// barrier the state is snapshotted and restored into a fresh Waves, which
// must reproduce the window, bases and join log exactly and carries on.
func driveShuffled(t *testing.T, nprocs int, factory trace.Factory, opts trace.ExploreOpts, rng *rand.Rand) (*trace.ExploreReport, error) {
	t.Helper()
	frontier, width, err := trace.SubtreePlan(nprocs, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWaves(frontier, width, opts)
	mirror, synced := trace.StateTable{}, 0
	var past []delivery // outcomes of earlier waves, redelivered as stale
	for complete := false; !complete; {
		for _, e := range w.Log()[synced:] {
			mirror.Join(e)
		}
		synced = len(w.Log())
		frozen := func(fp uint64) (int, bool) { rem, ok := mirror[fp]; return rem, ok }
		lo, hi := w.Window()
		var batch []delivery
		for i := lo; i < hi; i++ {
			if !w.Open(i) {
				continue
			}
			o, err := trace.RunSubtree(nprocs, factory, opts, frontier[i], w.Base(i), frozen)
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, delivery{i, o})
			if rng.IntN(3) == 0 {
				batch = append(batch, delivery{i, o}) // a re-leased duplicate
			}
		}
		for k := 0; k < len(past) && k < 3; k++ {
			batch = append(batch, past[rng.IntN(len(past))])
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		for _, d := range batch {
			if w.Add(d.id, d.o) {
				complete = true
			}
		}
		past = append(past, batch...)
		next, _ := w.Window()
		if complete {
			break
		}
		if next == lo {
			t.Fatalf("wave at subtree %d did not advance", lo)
		}
		// Snapshot at the barrier and resume from it.
		r := trace.NewWaves(frontier, width, opts)
		restored, done := r.Restore(w.Outcomes())
		if done {
			t.Fatal("a mid-search snapshot restored as complete")
		}
		rlo, rhi := r.Window()
		if rlo != next || restored != next || !reflect.DeepEqual(r.Log(), w.Log()) ||
			r.Base(rlo) != w.Base(next) {
			t.Fatalf("restore at barrier %d: window [%d,%d) base %d, %d restored, log %d entries; want window at %d base %d, log %d entries",
				next, rlo, rhi, r.Base(rlo), restored, len(r.Log()), next, w.Base(next), len(w.Log()))
		}
		w = r
	}
	return w.Merge(false)
}

// TestWavesArrivalOrder drives the wave protocol with outcomes in shuffled
// order, duplicated, mixed with stale ones and restored from a snapshot at
// every barrier, for every registered protocol — plain, pruned and
// symmetry-reduced — and requires the sequential Explore report.
func TestWavesArrivalOrder(t *testing.T) {
	modes := []struct {
		tag             string
		prune, symmetry bool
	}{
		{"plain", false, false},
		{"prune", true, false},
		{"symmetry", true, true},
	}
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
				opts := job.Opts
				opts.Workers = 1
				want, wantErr := trace.Explore(nprocs, factory, opts)
				for seed := uint64(1); seed <= 2; seed++ {
					got, gotErr := driveShuffled(t, nprocs, factory, job.Opts, rand.New(rand.NewPCG(seed, 0)))
					if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
						t.Fatalf("seed %d: error %v, want %v", seed, gotErr, wantErr)
					}
					if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
						t.Fatalf("seed %d: report diverges:\nwant %+v\ngot  %+v", seed, want, got)
					}
				}
			})
		}
	}
}
