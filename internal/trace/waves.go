// The wave protocol: the deterministic barrier/merge state machine that
// makes a sharded search report exactly what a single-subtree search
// reports. Explore drives it in process, a wave at a time on a worker pool;
// the distributed coordinator (internal/dist) drives it from leased results
// arriving in any order, any number of times. Both see the same rules:
//
//   - the frontier is drained in canonical waves of a fixed width;
//   - a subtree's budget base is frozen when its wave opens (pruned search)
//     or is any lower bound on the runs credited before it (unpruned);
//   - the first subtree whose outcome cuts the search (a failed run, the
//     MaxViolations cutoff, a MaxRuns stop) ends it: nothing past it merges;
//   - at a barrier the wave's closures are max-merged into the visited-state
//     table, which the next wave prunes against;
//   - the final merge re-cuts the outcomes at the exact run ordinal and, for
//     an exhausted pruned search, reports Distinct = |table|.
package trace

import (
	"errors"
	"fmt"
	"math"
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
// frozen budget base, the known cutoff, and the merged visited-state table
// with its append-only join log. It is not safe for concurrent use; its
// caller serializes Add calls.
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
	// base counts runs in completed waves: the frozen budget base of the
	// current wave. stopAfter is the smallest subtree known to cut the search
	// (len(frontier) while none is).
	base      int
	stopAfter int

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

// Base returns the budget base of subtree id: a lower bound on the runs the
// merge credits before it. A pruned search uses the base frozen at the wave
// start, which is part of its report's identity; an unpruned one may use any
// lower bound, and takes the runs of the earlier outcomes already added.
func (w *Waves) Base(id int) int {
	if w.prune {
		return w.base
	}
	base := 0
	for _, o := range w.outcomes[:id] {
		if o != nil {
			base += o.Runs
		}
	}
	return base
}

// Log returns the table's join log. It only grows; entries past a prefix
// already shipped are the delta that brings a mirror up to date.
func (w *Waves) Log() []FpEntry { return w.log }

// Outcomes returns a copy of the outcome slots, nil where none was added.
// The outcomes themselves are immutable once added.
func (w *Waves) Outcomes() []*SubtreeOutcome {
	return append([]*SubtreeOutcome(nil), w.outcomes...)
}

// Add records subtree id's complete outcome and reports whether the search
// is complete. An outcome outside the current wave or for a subtree that
// already has one is ignored: outcomes are pure functions of their subtree,
// wave and base, so a duplicate is identical and a stale one was merged.
func (w *Waves) Add(id int, o *SubtreeOutcome) bool {
	if id >= w.lo && id < w.hi && w.outcomes[id] == nil {
		w.outcomes[id] = o
		if id < w.stopAfter && o.cuts(w.maxViol) {
			w.stopAfter = id
		}
	}
	return w.advance()
}

// advance crosses the wave barrier once every subtree the merge can reach
// has an outcome. A cutoff inside the wave ends the search there and
// publishes nothing; otherwise the wave's runs join the frozen base, its
// closures are max-merged into the table, and the next wave opens.
func (w *Waves) advance() bool {
	if w.lo >= len(w.frontier) {
		return true
	}
	for _, o := range w.outcomes[w.lo:min(w.hi, w.stopAfter+1)] {
		if o == nil {
			return false
		}
	}
	if w.stopAfter < w.hi {
		return true
	}
	for _, o := range w.outcomes[w.lo:w.hi] {
		w.base += o.Runs
		for _, e := range o.Closures {
			if w.table.Join(e) {
				w.log = append(w.log, e)
			}
		}
	}
	w.lo, w.hi = w.hi, min(w.hi+w.width, len(w.frontier))
	return w.lo >= len(w.frontier)
}

// Restore replays a snapshot's outcomes (indexed like the frontier, nil
// where missing) through Add, wave by wave, so the table, bases and log end
// up exactly as if those subtrees had just completed. Outcomes past a
// discovered cutoff are ignored, as live ones would be. It returns how many
// outcomes it added and whether they complete the search.
func (w *Waves) Restore(outcomes []*SubtreeOutcome) (restored int, complete bool) {
	for {
		lo, hi := w.lo, w.hi
		for i := lo; i < hi && i < len(outcomes); i++ {
			if outcomes[i] == nil || w.outcomes[i] != nil {
				continue
			}
			restored++
			if w.Add(i, outcomes[i]) {
				return restored, true
			}
		}
		if w.lo == lo {
			return restored, false
		}
	}
}

// Merge folds the outcomes, in canonical order, into the report a
// single-subtree search would have produced: it credits each subtree's runs
// against the MaxRuns budget, re-applies the MaxViolations and run-error
// cutoffs at their exact run ordinals, and trims the overshoot past the
// first cutoff. A stopped outcome ends the merge with the report so far and
// ErrInterrupted; so does a missing one when interrupted is set (the caller
// was cancelled mid-search), which is otherwise an internal error.
func (w *Waves) Merge(interrupted bool) (*ExploreReport, error) {
	rep := &ExploreReport{}
	for i, o := range w.outcomes {
		budgetRem := math.MaxInt
		if w.maxRuns > 0 {
			budgetRem = w.maxRuns - rep.Runs
			if budgetRem <= 0 {
				return rep, nil // budget spent before this subtree
			}
		}
		if o == nil {
			if interrupted {
				return rep, ErrInterrupted
			}
			return nil, fmt.Errorf("trace: internal: subtree %v was never explored", w.frontier[i])
		}
		if o.Stopped {
			credit(rep, o)
			return rep, ErrInterrupted
		}
		violRem := w.maxViol - len(rep.Violations)
		// MaxViolations cutoff inside this subtree? (Violation ordinals
		// always precede a run error's, since the loop stops on error.)
		if len(o.Violations) >= violRem && o.Violations[violRem-1].Ord+1 <= budgetRem {
			v := o.Violations[violRem-1]
			rep.Runs += v.Ord + 1
			rep.Truncated += v.TruncCum
			rep.Pruned += v.PrunedCum
			rep.Distinct += v.DistinctCum
			addViolations(rep, o.Violations[:violRem])
			return rep, nil
		}
		// Run-error cutoff?
		if o.ErrOrd >= 0 && o.ErrOrd+1 <= budgetRem {
			rep.Runs += o.ErrOrd + 1
			rep.Truncated += o.ErrTruncCum
			rep.Pruned += o.ErrPrunedCum
			rep.Distinct += o.ErrDistinctCum
			addViolations(rep, o.Violations)
			if o.err != nil {
				return rep, o.err
			}
			return rep, errors.New(o.RunErr)
		}
		// MaxRuns cutoff inside this subtree? (The boundary case — budget
		// spent exactly at the subtree's recorded runs without exhausting it
		// — is a subtree that stopped on budget with more prefixes left to
		// explore.)
		if budgetRem < o.Runs || (budgetRem == o.Runs && !o.Exhausted) {
			rep.Runs += budgetRem
			rep.Truncated += countBits(o.TruncBits, budgetRem)
			rep.Pruned += countBits(o.PruneBits, budgetRem)
			if len(o.DistCums) >= budgetRem {
				rep.Distinct += int(o.DistCums[budgetRem-1])
			}
			k := 0 // violations are in ordinal order
			for k < len(o.Violations) && o.Violations[k].Ord < budgetRem {
				k++
			}
			addViolations(rep, o.Violations[:k])
			return rep, nil
		}
		// No cutoff here: credit the whole subtree.
		if !o.Exhausted {
			if interrupted {
				credit(rep, o)
				return rep, ErrInterrupted
			}
			return nil, fmt.Errorf("trace: internal: partial subtree %v survived merging", w.frontier[i])
		}
		credit(rep, o)
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

// credit adds one whole subtree outcome — counters and violations — to the
// merged report.
func credit(rep *ExploreReport, o *SubtreeOutcome) {
	rep.Runs += o.Runs
	rep.Truncated += o.Truncated
	rep.Pruned += o.Pruned
	rep.Distinct += o.Distinct
	addViolations(rep, o.Violations)
}

// addViolations appends violations to the report. Their errors are the
// checks' messages: a report prints nothing else, and a distributed outcome
// carries nothing else.
func addViolations(rep *ExploreReport, vs []SubtreeViolation) {
	for _, v := range vs {
		rep.Violations = append(rep.Violations, Violation{Schedule: v.Schedule, Err: errors.New(v.Err)})
	}
}
