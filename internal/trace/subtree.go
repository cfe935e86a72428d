// Subtree outcomes and the exported hooks of a distributed schedule search
// (see internal/dist). The one DFS loop (explorer.explore) reports each
// subtree as a SubtreeOutcome, in process and over the wire alike, and the
// wave protocol (waves.go) merges outcomes back deterministically. A
// coordinator in another process — or on another machine — drives the same
// pieces over a transport:
//
//   - SubtreePlan computes the canonical frontier of subtree roots and the
//     wave width a distributed run must use to reproduce the single-process
//     report byte for byte (pruned explorations share closed states only at
//     wave barriers, so the wave structure is part of the report's identity).
//     It is the in-process planner with a larger unpruned frontier.
//   - RunSubtree runs the subtree loop on one leased subtree — stopping on
//     lower bounds of the runs and violations credited before it, pruning
//     against a frozen visited-state view — and returns its outcome; a
//     SubtreeRunner runs many in turn on one explorer.
//   - Waves (waves.go) takes outcomes in any order, re-opens the one subtree
//     whose outcome overshoots the cutoff, and merges them.
//
// An outcome is plain totals. A subtree run on lower bounds runs a prefix of
// its DFS at least as long as the run on exact bases, so its outcome either
// is the exact one or overshoots the cutoff, and the merge can tell which
// from the totals and the exact bases. The exact outcome for a given (root,
// options, frozen view) is a pure value, so the merge is independent of which
// worker produced which subtree, of arrival order, and of how often a
// subtree was re-leased after a worker died.
package trace

import "errors"

// ErrInterrupted is returned (alongside the partial report) when
// ExploreOpts.Interrupted — or a distributed coordinator's context — stops a
// search before it finishes.
var ErrInterrupted = errors.New("trace: exploration interrupted")

// FpEntry is one visited-state closure: configuration fingerprint fp has
// been fully explored to Rem further scheduler levels. Entries max-merge
// (keep the larger Rem), which commutes, so a log of entries can be applied
// in any order, any number of times, and converge to the same table.
type FpEntry struct {
	Fp  uint64
	Rem int
}

// SubtreeViolation is one violation found inside a subtree: its schedule
// and the check's error message.
type SubtreeViolation struct {
	Schedule []int
	Err      string
}

// SubtreeOutcome is the result of exploring one subtree, in process or for a
// lease, in wire-serializable form: the subtree's totals, its violations in
// DFS order, a failed run if one ended the subtree, and the subtree's newly
// closed states for the visited-state table. The merge credits an outcome
// whole; one that overshoots a cutoff is run again on exact bases (see
// Waves).
type SubtreeOutcome struct {
	Runs      int
	Truncated int
	Exhausted bool
	Pruned    int
	Distinct  int

	Violations []SubtreeViolation `json:",omitempty"`
	// ViolCut marks a subtree that stopped at the MaxViolations cutoff, on
	// its last violation and before backtracking from that run.
	ViolCut bool `json:",omitempty"`

	// RunErr is a failed run's message ("" = none): an engine error or a
	// replay divergence. It ends the subtree with that run. err keeps the
	// failure's wrapped chain for an in-process Explore; it never crosses
	// the wire.
	RunErr string `json:",omitempty"`
	err    error

	// Closures are the subtree's newly closed states, sorted by fingerprint,
	// for publication into the coordinator's table at the wave barrier. They
	// cross the wire and the journal as one base64 string (see Closures).
	Closures Closures `json:",omitempty"`

	// Stopped marks an outcome abandoned by ExploreOpts.Interrupted: it is
	// incomplete, so the merge credits it and ends with ErrInterrupted. A
	// distributed worker discards stopped outcomes — the coordinator
	// re-leases the subtree elsewhere.
	Stopped bool `json:",omitempty"`
}

// SubtreePlan computes the frontier of disjoint subtree-root prefixes, in
// canonical DFS order, and the wave width a distributed exploration must use
// to reproduce the single-process Explore report exactly. It also validates
// the option contracts (engine name, prune capabilities, on the probe
// systems it builds), so a coordinator fails fast instead of shipping a
// broken job to workers.
//
// For a pruned search the frontier (the first whole level of the schedule
// tree with at least pruneFrontierTarget subtrees) and the wave width are
// the worker-independent ones of the in-process explorer — the cache-sharing
// structure is part of the report — and closed states may only be shared
// across (never within) waves. For an unpruned search the report is
// independent of the sharding, so the plan is one wave over a modest
// frontier. Either way any lower bounds serve as a subtree's bases.
// A frontier of length <= 1 means the tree is too small to shard: run
// Explore locally instead.
func SubtreePlan(nprocs int, factory Factory, opts ExploreOpts) (frontier [][]int, waveWidth int, err error) {
	if err := validateOpts(opts); err != nil {
		return nil, 0, err
	}
	return plan(nprocs, factory, opts, distFrontierTarget)
}

// distFrontierTarget is the frontier size of an unpruned distributed
// exploration: enough subtrees that a handful of workers with a few slots
// each stay busy, few enough that probe runs stay negligible. Unpruned
// reports do not depend on this value.
const distFrontierTarget = 64

// RunSubtree explores the subtree rooted at root to completion with the
// in-process subtree loop. base and violBase are lower bounds on the runs
// and violations the merge will credit before this subtree: the loop stops
// once they plus its own count reach MaxRuns or MaxViolations. When
// opts.Prune is set, runs are pruned against frozen — the caller's read-only
// view of previously closed states, which must not change while the call
// runs (the coordinator guarantees this by publishing closures only at wave
// barriers). The outcome carries the subtree's own closures; the caller owns
// publishing them. A root pick that is not enabled is a replay divergence,
// reported as the outcome's failed run. It is a one-shot SubtreeRunner.
func RunSubtree(nprocs int, factory Factory, opts ExploreOpts, root []int, base, violBase int, frozen func(fp uint64) (int, bool)) (*SubtreeOutcome, error) {
	r, err := NewSubtreeRunner(nprocs, factory, opts)
	if err != nil {
		return nil, err
	}
	return r.Run(root, base, violBase, frozen)
}

// SubtreeRunner runs leased subtrees of one search, one at a time, on one
// explorer: its engine, live system, pristine root and checkpoint slots are
// built by the first subtree and reused by every later one, as an
// in-process worker reuses its explorer across the subtrees it drains. A
// distributed worker keeps one per slot while consecutive leases belong to
// the same job. It is not safe for concurrent use.
type SubtreeRunner struct {
	ex *explorer
}

// NewSubtreeRunner validates opts and returns a runner for subtrees of the
// nprocs-process search over factory's systems.
func NewSubtreeRunner(nprocs int, factory Factory, opts ExploreOpts) (*SubtreeRunner, error) {
	if err := validateOpts(opts); err != nil {
		return nil, err
	}
	return &SubtreeRunner{ex: newExplorer(nprocs, factory, opts, nil)}, nil
}

// Run explores the subtree rooted at root as RunSubtree does. Each call
// starts from fresh shared state, so its outcome is what a one-shot
// RunSubtree returns for the same arguments.
func (r *SubtreeRunner) Run(root []int, base, violBase int, frozen func(fp uint64) (int, bool)) (*SubtreeOutcome, error) {
	sh := newExploreShared([][]int{root}, r.ex.opts)
	sh.runBase, sh.violBase = base, violBase
	r.ex.sh = sh
	return r.ex.explore(0, frozen)
}
