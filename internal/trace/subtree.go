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
//   - RunSubtree runs the subtree loop on one leased subtree — same budget
//     lower bound, same pruning against a frozen visited-state view — and
//     returns its outcome.
//   - Waves (waves.go) takes outcomes in any order and merges them.
//
// Because every field an outcome carries is positioned by run ordinal, the
// merge is independent of which worker produced which subtree, of arrival
// order, and of how often a subtree was re-leased after a worker died: a
// complete outcome for a given (root, options, frozen view, budget base) is
// a pure value, so duplicates are identical and re-execution is idempotent.
package trace

import (
	"errors"
	"math/bits"
)

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

// SubtreeViolation is one violation found inside a subtree, positioned by
// run ordinal so the merge can apply MaxViolations at the exact run where a
// single-subtree search would have stopped. TruncCum and PrunedCum count the
// truncated and cut runs among ordinals [0, Ord] (the violating run is never
// cut); DistinctCum counts states closed before the violating run's
// backtrack (a violation cutoff stops the loop before closures). The check's
// error is kept as its message.
type SubtreeViolation struct {
	Ord         int
	TruncCum    int
	PrunedCum   int
	DistinctCum int
	Schedule    []int
	Err         string
}

// SubtreeOutcome is the result of exploring one subtree, in process or for a
// lease, in wire-serializable form: the aggregate counts, the per-run detail
// the deterministic merge needs (violation ordinals, truncation and prune
// bitsets, cumulative distinct counts), a failed run if one ended the
// subtree, and the subtree's newly closed states for the visited-state
// table. TruncBits, PruneBits and DistCums are only tracked under a MaxRuns
// budget, where the merge may need the counters of an arbitrary run prefix.
type SubtreeOutcome struct {
	Runs      int
	Truncated int
	Exhausted bool
	Pruned    int
	Distinct  int

	Violations []SubtreeViolation `json:",omitempty"`
	TruncBits  []uint64           `json:",omitempty"`
	PruneBits  []uint64           `json:",omitempty"`
	DistCums   []int32            `json:",omitempty"`

	// RunErr is a failed run's message ("" = none): an engine error or a
	// replay divergence. ErrOrd positions it (-1 = none) and the cumulative
	// counters, like a violation's, position the merge at it (the failing
	// run counts its truncation). err keeps
	// the failure's wrapped chain for an in-process Explore; it never
	// crosses the wire.
	RunErr         string `json:",omitempty"`
	err            error
	ErrOrd         int
	ErrTruncCum    int
	ErrPrunedCum   int
	ErrDistinctCum int

	// Closures are the subtree's newly closed states, sorted by fingerprint,
	// for publication into the coordinator's table at the wave barrier.
	Closures []FpEntry `json:",omitempty"`

	// Stopped marks an outcome abandoned by ExploreOpts.Interrupted: it is
	// incomplete, so the merge credits it and ends with ErrInterrupted. A
	// distributed worker discards stopped outcomes — the coordinator
	// re-leases the subtree elsewhere.
	Stopped bool `json:",omitempty"`
}

// cuts reports whether this outcome ends the search at its subtree: a failed
// run, the MaxViolations cutoff, or a MaxRuns budget stop (the only way a
// completed subtree is not exhausted). Subtrees after a cutting one are
// never merged.
func (o *SubtreeOutcome) cuts(maxViol int) bool {
	return o.RunErr != "" || len(o.Violations) >= maxViol || !o.Exhausted
}

// setBit marks run ordinal ord in a per-run bitset.
func setBit(bits *[]uint64, ord int) {
	w := ord >> 6
	for len(*bits) <= w {
		*bits = append(*bits, 0)
	}
	(*bits)[w] |= 1 << (ord & 63)
}

// countBits returns the number of marked ordinals in [0, n).
func countBits(bs []uint64, n int) int {
	c := 0
	for w := 0; w*64 < n; w++ {
		var word uint64
		if w < len(bs) {
			word = bs[w]
		}
		if (w+1)*64 > n {
			word &= 1<<(uint(n)&63) - 1
		}
		c += bits.OnesCount64(word)
	}
	return c
}

// SubtreePlan computes the frontier of disjoint subtree-root prefixes, in
// canonical DFS order, and the wave width a distributed exploration must use
// to reproduce the single-process Explore report exactly. It also validates
// the option contracts (engine name, prune capabilities, on the probe
// systems it builds), so a coordinator fails fast instead of shipping a
// broken job to workers.
//
// For a pruned search the frontier size and wave width are the fixed,
// worker-independent ones of the in-process explorer — the cache-sharing
// structure is part of the report — and closed states may only be shared
// across (never within) waves, with budget bases frozen at wave starts. For
// an unpruned search the report is independent of the sharding, so the plan
// is one wave over a modest frontier and any valid budget lower bound works.
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
// in-process subtree loop: the MaxRuns budget is checked against the leased
// base (a lower bound on the runs the merge will credit before this subtree)
// and, when opts.Prune is set, runs are pruned against frozen — the caller's
// read-only view of previously closed states, which must not change while
// the call runs (the coordinator guarantees this by publishing closures only
// at wave barriers). The outcome carries the subtree's own closures; the
// caller owns publishing them. A root pick that is not enabled is a replay
// divergence, reported as the outcome's failed run.
func RunSubtree(nprocs int, factory Factory, opts ExploreOpts, root []int, base int, frozen func(fp uint64) (int, bool)) (*SubtreeOutcome, error) {
	if err := validateOpts(opts); err != nil {
		return nil, err
	}
	sh := newExploreShared([][]int{root}, opts)
	sh.base = base
	return newExplorer(nprocs, factory, opts, sh).explore(0, frozen)
}
