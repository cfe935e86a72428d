package harness

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"revisionist/internal/obs"
	"revisionist/internal/protocol"
	"revisionist/internal/trace"
)

// TestCheckObsInvariant is the observability determinism contract: for every
// registered protocol at small bounds, attaching a live SearchObs must leave
// the rendered check report byte-identical — with observability off and on,
// at one worker and several. Instrumentation is a pure side channel; the
// moment a counter read feeds back into exploration order this test breaks.
// It runs under -race in CI (make race covers this package), which also
// proves the counters are safe under the parallel searcher.
func TestCheckObsInvariant(t *testing.T) {
	for _, pr := range protocol.Protocols() {
		pr := pr
		t.Run(pr.Name, func(t *testing.T) {
			t.Parallel()
			base := Options{
				Protocol:      pr.Name,
				Params:        smallCheckParams(pr.Name),
				MaxDepth:      8,
				MaxRuns:       50_000,
				MaxViolations: 3,
				Prune:         true,
				Symmetry:      true,
			}
			type variant struct {
				name    string
				workers int
				obs     *trace.SearchObs
			}
			variants := []variant{
				{"off-w1", 1, nil},
				{"on-w1", 1, trace.NewSearchObs(obs.NewRegistry())},
				{"off-wN", 4, nil},
				{"on-wN", 4, trace.NewSearchObs(obs.NewRegistry())},
			}
			var want []byte
			for _, v := range variants {
				opts := base
				opts.Workers = v.workers
				opts.Obs = v.obs
				rep, err := Check(opts)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				var buf bytes.Buffer
				WriteCheckReport(&buf, rep, opts.MaxDepth, true, true, nil)
				if want == nil {
					want = buf.Bytes()
				} else if !bytes.Equal(want, buf.Bytes()) {
					t.Fatalf("%s report diverges:\n--- %s ---\n%s--- %s ---\n%s",
						v.name, variants[0].name, want, v.name, buf.Bytes())
				}
				// The instrumented runs must actually instrument: the counters
				// cover at least the report's exploration. (Not exact equality:
				// composite protocols like firstvalue-consensus explore more
				// than once per Check, and the side channel sees every pass.)
				if v.obs != nil {
					if got, explored := v.obs.Runs(), int64(rep.Explore.Runs); got == 0 || got < explored {
						t.Fatalf("%s: SearchObs counted %d runs, report says %d", v.name, got, explored)
					}
					if got, pruned := v.obs.Pruned(), int64(rep.Explore.Pruned); got < pruned {
						t.Fatalf("%s: SearchObs counted %d pruned, report says %d", v.name, got, pruned)
					}
				}
			}
		})
	}
}

// TestStartProgress drives the ticker off a deterministic feed and checks it
// renders moving counters, then stops cleanly (leaktest covers the rest).
func TestStartProgress(t *testing.T) {
	m := trace.NewSearchObs(obs.NewRegistry())
	rep, err := Check(Options{Protocol: "firstvalue", Params: protocol.Params{N: 3},
		MaxDepth: 8, Prune: true, Workers: 1, Obs: m})
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs() == 0 || int(m.Runs()) != rep.Explore.Runs {
		t.Fatalf("SearchObs runs = %d, report = %d", m.Runs(), rep.Explore.Runs)
	}
	var buf safeBuffer
	stop := StartProgress(&buf, m, time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for buf.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("progress ticker never printed")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	line := buf.String()
	wantPrefix := fmt.Sprintf("progress: %d runs", rep.Explore.Runs)
	if !bytes.HasPrefix([]byte(line), []byte(wantPrefix)) {
		t.Fatalf("progress line %q does not start with %q", line, wantPrefix)
	}
}

// TestOneWorkerNeverReruns: a one-worker search runs every subtree on exact
// bases — the runs and violations of the subtrees before it are final when
// it starts — so no outcome overshoots a cutoff and no subtree runs twice:
// search_runs_total equals the report's Runs. The cases are cut by the run
// budget, unpruned and pruned, and by a violation cutoff whose violations
// span several subtrees of the pruned frontier.
func TestOneWorkerNeverReruns(t *testing.T) {
	for _, c := range []struct {
		name     string
		opts     Options
		subtrees int // violated subtrees the case must span
	}{
		{"budget", Options{Protocol: "consensus", Params: protocol.Params{N: 3}, MaxDepth: 16, MaxRuns: 5000}, 0},
		{"budget-pruned", Options{Protocol: "consensus", Params: protocol.Params{N: 3}, MaxDepth: 16, MaxRuns: 5000, Prune: true}, 0},
		{"viol-pruned", Options{Protocol: "firstvalue-consensus", Params: protocol.Params{N: 3}, MaxDepth: 9, MaxViolations: 20, Prune: true}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := trace.NewSearchObs(obs.NewRegistry())
			opts := c.opts
			opts.Workers, opts.Obs = 1, m
			rep, err := Check(opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Explore.Exhausted {
				t.Fatalf("the case is not cut: %+v", rep.Explore)
			}
			if int(m.Runs()) != rep.Explore.Runs {
				t.Fatalf("search_runs_total = %d, report Runs = %d: a subtree ran past its cutoff", m.Runs(), rep.Explore.Runs)
			}
			job, err := CheckJob(opts)
			if err != nil {
				t.Fatal(err)
			}
			nprocs, factory, err := Resolve(job)
			if err != nil {
				t.Fatal(err)
			}
			frontier, _, err := trace.SubtreePlan(nprocs, factory, job.Opts)
			if err != nil {
				t.Fatal(err)
			}
			violated := map[int]bool{}
			for _, v := range rep.Explore.Violations {
				for i, root := range frontier {
					if len(v.Schedule) >= len(root) && slices.Equal(v.Schedule[:len(root)], root) {
						violated[i] = true
					}
				}
			}
			if len(violated) < c.subtrees {
				t.Fatalf("violations span %d subtrees, want at least %d", len(violated), c.subtrees)
			}
		})
	}
}

// safeBuffer is a mutex-guarded bytes.Buffer: the ticker goroutine writes
// while the test polls.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
