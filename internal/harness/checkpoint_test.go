package harness

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"revisionist/internal/protocol"
	"revisionist/internal/sched"
	"revisionist/internal/trace"
)

// TestCheckpointedSearchMatchesReplay checks that resuming runs from
// checkpoints changes nothing a search reports. For every registered
// protocol, an unpruned search on the real factory — whose systems restore,
// so each run resumes from the deepest checkpoint on the path it shares with
// the previous run — must report exactly what the same search reports on
// systems that cannot restore, where every run replays its schedule from the
// initial configuration: at one and two workers, under a MaxRuns and a
// MaxViolations cut, and for each subtree of a distributed plan run alone.
func TestCheckpointedSearchMatchesReplay(t *testing.T) {
	const depth = 9
	for _, pr := range protocol.Protocols() {
		t.Run(pr.Name, func(t *testing.T) {
			// Three processes where the protocol takes them, else two.
			p, err := pr.Resolve(protocol.Params{N: 3, K: 2, X: 2})
			if err != nil {
				p, err = pr.Resolve(protocol.Params{N: 2, K: 1, X: 1})
			}
			if err != nil {
				t.Fatal(err)
			}
			restoring := factory(pr, p)
			replaying := func(gate sched.Stepper) trace.System {
				sys := restoring(gate)
				sys.Restore = nil
				return sys
			}
			// The run cap is Check's default: far above every tree here, it
			// turns a search that never ends into a report that differs.
			const maxRuns = 200_000
			full := trace.ExploreOpts{MaxDepth: depth, MaxRuns: maxRuns, MaxViolations: 1 << 20, Workers: 1}
			want, err := trace.Explore(p.N, replaying, full)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d runs, %d truncated, %d violations, exhausted %v",
				want.Runs, want.Truncated, len(want.Violations), want.Exhausted)
			cases := []struct {
				name string
				opts trace.ExploreOpts
			}{
				{"workers=1", full},
				{"workers=2", trace.ExploreOpts{MaxDepth: depth, MaxRuns: maxRuns, MaxViolations: 1 << 20, Workers: 2}},
				{"maxruns", trace.ExploreOpts{MaxDepth: depth, MaxRuns: want.Runs/2 + 1, MaxViolations: 1 << 20, Workers: 2}},
				{"maxviolations", trace.ExploreOpts{MaxDepth: depth, MaxRuns: maxRuns, MaxViolations: max(len(want.Violations)/2, 1), Workers: 2}},
			}
			for _, c := range cases {
				got, gerr := trace.Explore(p.N, restoring, c.opts)
				want, werr := trace.Explore(p.N, replaying, c.opts)
				if g, w := renderExplore(got, gerr), renderExplore(want, werr); g != w {
					t.Errorf("%s: checkpointed search reports\n%s\nreplaying search reports\n%s", c.name, g, w)
				}
			}
			frontier, _, err := trace.SubtreePlan(p.N, restoring, full)
			if err != nil {
				t.Fatal(err)
			}
			for _, root := range frontier {
				got, gerr := trace.RunSubtree(p.N, restoring, full, root, 0, 0, nil)
				want, werr := trace.RunSubtree(p.N, replaying, full, root, 0, 0, nil)
				if g, w := renderOutcome(t, got, gerr), renderOutcome(t, want, werr); g != w {
					t.Errorf("subtree %v: checkpointed outcome %s, replaying outcome %s", root, g, w)
				}
			}
		})
	}
}

// renderExplore renders everything a search reports, violation messages
// included, for comparison.
func renderExplore(rep *trace.ExploreReport, err error) string {
	if rep == nil {
		return fmt.Sprintf("error %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "runs %d truncated %d exhausted %v pruned %d distinct %d error %v\n",
		rep.Runs, rep.Truncated, rep.Exhausted, rep.Pruned, rep.Distinct, err)
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "%v: %v\n", v.Schedule, v.Err)
	}
	return b.String()
}

// renderOutcome renders a subtree outcome in its wire form.
func renderOutcome(t *testing.T, o *trace.SubtreeOutcome, err error) string {
	t.Helper()
	if err != nil {
		return fmt.Sprintf("error %v", err)
	}
	b, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
