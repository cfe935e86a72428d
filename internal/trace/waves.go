// The wave protocol: the deterministic barrier/merge state machine that
// makes a sharded search report exactly what a single-subtree search
// reports. Explore drives it in process, a wave at a time on a worker pool;
// the distributed coordinator (internal/dist) drives it from leased results
// arriving in any order, any number of times. Both see the same rules:
//
//   - the frontier is drained in canonical waves of a fixed width;
//   - a subtree runs on lower bounds of the runs and violations credited
//     before it (Base), so its outcome is exact or overshoots the cutoff;
//   - outcomes are judged in canonical order against exact bases: one that
//     overshoots is cleared and its subtree re-opened, now with exact bases,
//     and the search ends there;
//   - the first subtree whose outcome cuts the search (a failed run, the
//     MaxViolations cutoff, a MaxRuns stop) ends it: nothing past it merges;
//   - at a barrier the wave's closures are max-merged into the visited-state
//     table, which the next wave prunes against;
//   - the final merge credits every outcome whole and, for an exhausted
//     pruned search, reports Distinct = |table|.
package trace

import (
	"errors"
	"fmt"
)

// StateTable maps configuration fingerprints to the largest remaining depth
// to which that configuration has been fully explored.
type StateTable map[uint64]int

// Join max-merges one closure into the table and reports whether it raised
// the table. Joins commute and are idempotent, so closures can be applied in
// any order, any number of times, and converge to the same table.
func (t StateTable) Join(e FpEntry) bool {
	if cur, ok := t[e.Fp]; ok && e.Rem <= cur {
		return false
	}
	t[e.Fp] = e.Rem
	return true
}

func (t StateTable) lookup(fp uint64) (int, bool) {
	rem, ok := t[fp]
	return rem, ok
}

// Waves is the wave protocol's state for one search: the canonical frontier
// of subtree roots, the current wave window, the outcomes added so far, the
// totals of completed waves, the known cutoff, and the merged visited-state
// table with its append-only join log. It is not safe for concurrent use;
// its caller serializes Add calls.
type Waves struct {
	frontier [][]int
	width    int
	maxRuns  int
	maxViol  int
	prune    bool

	outcomes []*SubtreeOutcome
	// lo and hi bound the current wave [lo, hi); lo == len(frontier) once
	// every wave has merged.
	lo, hi int
	// runs and viols total the runs and violations of completed waves: the
	// exact bases of the current wave's first subtree. stopAfter is the
	// smallest subtree known to cut the search (len(frontier) while none
	// is).
	runs, viols int
	stopAfter   int

	// table is the merged visited-state table; log lists every closure that
	// raised it, in join order, so a mirror can catch up from any prefix.
	table StateTable
	log   []FpEntry
}

// NewWaves starts the wave protocol over a planned frontier (see
// SubtreePlan) with its first wave open.
func NewWaves(frontier [][]int, width int, opts ExploreOpts) *Waves {
	return &Waves{
		frontier:  frontier,
		width:     width,
		maxRuns:   opts.MaxRuns,
		maxViol:   opts.maxViolations(),
		prune:     opts.Prune,
		outcomes:  make([]*SubtreeOutcome, len(frontier)),
		hi:        min(width, len(frontier)),
		stopAfter: len(frontier),
		table:     StateTable{},
	}
}

// Frontier returns the subtree roots in canonical order.
func (w *Waves) Frontier() [][]int { return w.frontier }

// Window returns the current wave [lo, hi).
func (w *Waves) Window() (lo, hi int) { return w.lo, w.hi }

// Open reports whether the search still needs an outcome for subtree id: it
// lies in the current wave, at or before the known cutoff, and has none.
func (w *Waves) Open(id int) bool {
	return id >= w.lo && id < w.hi && id <= w.stopAfter && w.outcomes[id] == nil
}

// Base returns the runs and violations of the outcomes already added before
// subtree id: lower bounds on what the merge credits before it, and exact
// once every earlier outcome is in. (An earlier outcome that overshoots ends
// the search before id, so id's bases then do not matter.)
func (w *Waves) Base(id int) (runs, viols int) {
	runs, viols = w.runs, w.viols
	for _, o := range w.outcomes[w.lo:id] {
		if o != nil {
			runs += o.Runs
			viols += len(o.Violations)
		}
	}
	return runs, viols
}

// Log returns the table's join log. It only grows; entries past a prefix
// already shipped are the delta that brings a mirror up to date.
func (w *Waves) Log() []FpEntry { return w.log }

// Outcomes returns a copy of the outcome slots, nil where none was added.
// The outcomes themselves are immutable once added.
func (w *Waves) Outcomes() []*SubtreeOutcome {
	return append([]*SubtreeOutcome(nil), w.outcomes...)
}

// Add records subtree id's outcome and reports whether the search is
// complete. An outcome outside the current wave or for a subtree that
// already has one is ignored: an accepted outcome is the subtree's exact
// one, so a duplicate is identical or overshoots, and a stale one was
// merged. An outcome that overshoots is cleared again once the outcomes
// before it are in, which re-opens its subtree (see Open).
func (w *Waves) Add(id int, o *SubtreeOutcome) bool {
	if id >= w.lo && id < w.hi && w.outcomes[id] == nil {
		w.outcomes[id] = o
		// A subtree that stops short of exhaustion on lower bounds stops
		// short on exact ones too, no later, so the search ends at or
		// before it.
		if !o.Exhausted {
			w.stopAfter = min(w.stopAfter, id)
		}
	}
	return w.advance()
}

// advance judges the wave's outcomes in canonical order against their exact
// bases and crosses the wave barrier once every subtree the merge can reach
// has an exact outcome. An overshooting outcome is cleared and ends the
// search at its subtree. A cutoff inside the wave ends the search there and
// publishes nothing; otherwise the wave's totals join the bases, its
// closures are max-merged into the table, and the next wave opens.
func (w *Waves) advance() bool {
	if w.lo >= len(w.frontier) {
		return true
	}
	runs, viols := w.runs, w.viols
	for i := w.lo; i < min(w.hi, w.stopAfter+1); i++ {
		o := w.outcomes[i]
		if o == nil {
			return false
		}
		if w.overshoots(o, runs, viols) {
			w.outcomes[i] = nil
			w.stopAfter = i
			return false
		}
		runs += o.Runs
		viols += len(o.Violations)
	}
	if w.stopAfter < w.hi {
		return true
	}
	for _, o := range w.outcomes[w.lo:w.hi] {
		for _, e := range o.Closures {
			if w.table.Join(e) {
				w.log = append(w.log, e)
			}
		}
	}
	w.runs, w.viols = runs, viols
	w.lo, w.hi = w.hi, min(w.hi+w.width, len(w.frontier))
	return w.lo >= len(w.frontier)
}

// overshoots reports whether o, run on lower bounds, went past the point
// where the subtree stops on the exact bases runs and viols. The exact run
// stops at the first of: the violation that brings the total to
// MaxViolations (before backtracking), the run that brings it to MaxRuns
// (after backtracking), a failed run, exhaustion. It overshoots when o holds
// more violations than that cutoff allows, or exactly as many without having
// stopped on the last one, or more runs than the budget leaves. A stopped
// outcome is partial and never judged.
func (w *Waves) overshoots(o *SubtreeOutcome, runs, viols int) bool {
	if o.Stopped {
		return false
	}
	vrem := w.maxViol - viols
	return len(o.Violations) > vrem || (len(o.Violations) == vrem && !o.ViolCut) ||
		(w.maxRuns > 0 && runs+o.Runs > w.maxRuns)
}

// Restore replays a snapshot's outcomes (indexed like the frontier, nil
// where missing) through Add, wave by wave, so the table, bases and log end
// up exactly as if those subtrees had just completed. Outcomes past a
// discovered cutoff are ignored, as live ones would be, and one that
// overshoots is cleared and its subtree re-opened. It returns how many
// outcomes it kept and whether they complete the search.
func (w *Waves) Restore(outcomes []*SubtreeOutcome) (restored int, complete bool) {
	for {
		lo, hi := w.lo, w.hi
		for i := lo; i < hi && i < len(outcomes); i++ {
			if outcomes[i] == nil || w.outcomes[i] != nil {
				continue
			}
			if complete = w.Add(i, outcomes[i]); complete {
				break
			}
		}
		if complete || w.lo == lo {
			break
		}
	}
	for _, o := range w.outcomes {
		if o != nil {
			restored++
		}
	}
	return restored, complete
}

// Merge folds the outcomes, in canonical order, into the report a
// single-subtree search would have produced, crediting each whole: the
// subtree that ends the search — a failed run, the MaxViolations cutoff, a
// MaxRuns stop — is the last one credited, and a budget spent exactly at a
// subtree's end stops the merge before the next. A stopped outcome ends the
// merge with the report so far and ErrInterrupted; so does a missing one
// when interrupted is set (the caller was cancelled mid-search), which is
// otherwise an internal error.
func (w *Waves) Merge(interrupted bool) (*ExploreReport, error) {
	rep := &ExploreReport{}
	for i, o := range w.outcomes {
		if w.maxRuns > 0 && rep.Runs >= w.maxRuns {
			return rep, nil // budget spent before this subtree
		}
		if o == nil {
			if interrupted {
				return rep, ErrInterrupted
			}
			return nil, fmt.Errorf("trace: internal: subtree %v was never explored", w.frontier[i])
		}
		rep.Runs += o.Runs
		rep.Truncated += o.Truncated
		rep.Pruned += o.Pruned
		rep.Distinct += o.Distinct
		for _, v := range o.Violations {
			// A report prints nothing of a violation's error but its
			// message, and a distributed outcome carries nothing else.
			rep.Violations = append(rep.Violations, Violation{Schedule: v.Schedule, Err: errors.New(v.Err)})
		}
		switch {
		case o.Stopped:
			return rep, ErrInterrupted
		case o.err != nil:
			return rep, o.err
		case o.RunErr != "":
			return rep, errors.New(o.RunErr)
		case !o.Exhausted:
			if len(rep.Violations) >= w.maxViol || (w.maxRuns > 0 && rep.Runs >= w.maxRuns) {
				return rep, nil // this subtree ends the search
			}
			if interrupted {
				return rep, ErrInterrupted
			}
			return nil, fmt.Errorf("trace: internal: partial subtree %v survived merging", w.frontier[i])
		}
	}
	rep.Exhausted = true
	if w.prune {
		// Every wave published, so the table holds the union of all
		// closures: the exact distinct-configuration count. The per-subtree
		// sum counts a configuration closed by sibling subtrees of one wave
		// once per subtree; it stays the (deterministic) value only when a
		// cutoff ended the search before the final wave published.
		rep.Distinct = len(w.table)
	}
	return rep, nil
}
