// Parallel schedule search: the frontier planner, the wave driver and the
// deterministic merge around the one subtree DFS loop (explorer.explore).
// Exhaustive exploration is embarrassingly parallel over independent
// subtrees, each searched by its own explorer on its own engine, so the
// planner splits the DFS prefix tree into disjoint subtrees — it expands the
// first few decision levels into a frontier of prefixes in canonical DFS
// order — and a pool of workers drains them, each subtree by the same loop. Per-subtree results carry enough per-run detail
// (violation ordinals, truncation bits) that the merge can re-cut the search
// at exactly the run where a single-subtree search would have stopped, so
// the report is byte-identical for any worker count: violations in canonical
// schedule order, Runs/Truncated/Exhausted exact, MaxRuns and MaxViolations
// enforced through a budget handoff between subtrees.
package trace

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// ResolveWorkers maps a Workers option value to a concrete pool size:
// 0 (the default) selects GOMAXPROCS, everything below 1 is clamped to 1.
func ResolveWorkers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(n, 1)
}

// RunOnPool runs fn(0..n-1) on a pool of workers claiming indices from a
// shared counter; with one worker it degenerates to a plain loop. It is the
// shared fan-out shape of every parallel search in the repository — callers
// keep results deterministic by writing fn's outcome to a per-index slot and
// merging in index order afterwards.
func RunOnPool(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// frontierTarget is how many subtrees the planner aims to expand per
// worker: enough slack that an uneven subtree cannot idle the pool, small
// enough that probe runs and merge state stay negligible.
const frontierTarget = 4

// maxFrontier caps the frontier size regardless of worker count, which also
// caps the per-run cost of the budget lower bound (a prefix sum over the
// subtree run counters).
const maxFrontier = 512

// plan computes the frontier of disjoint subtree roots, in canonical DFS
// order, and the wave width to drain it with. A pruned search uses the
// fixed, worker-independent frontier and wave width below, because the
// cache-sharing structure is part of its report, whatever target the caller
// asks for; an unpruned search aims at target subtrees and runs them as one
// wave. A frontier of one root {} is the
// sequential search.
func plan(nprocs int, factory Factory, opts ExploreOpts, target int) (frontier [][]int, width int, err error) {
	if opts.Prune {
		target = pruneFrontierTarget
	}
	if opts.MaxRuns > 0 {
		target = min(target, opts.MaxRuns)
	}
	frontier = [][]int{{}}
	if nprocs > 1 {
		if frontier, err = expandFrontier(nprocs, factory, opts, max(target, 1)); err != nil {
			return nil, 0, err
		}
	}
	width = len(frontier)
	if opts.Prune {
		width = min(width, pruneWaveWidth)
	}
	return frontier, width, nil
}

// expandFrontier splits the DFS tree into disjoint subtree-root prefixes, in
// canonical DFS order, by probing: one run with prefix p (first-enabled
// beyond it) reveals the enabled set at decision level len(p), whose members
// are p's children. Expansion proceeds level by level until the frontier
// reaches target, probing is no longer making progress, or the probe budget
// is spent. Probes run the explorer's strategy with no cache. Their results
// are discarded — each probe is re-executed as its subtree's first run — so
// a failed probe only ends expansion below its prefix: the owning subtree
// hits the same error at its canonical position. Two failures are returned
// instead, because no canonical position exists for them: a replay
// divergence (the factory is nondeterministic) and a system lacking a hook
// the options need.
func expandFrontier(nprocs int, factory Factory, opts ExploreOpts, target int) ([][]int, error) {
	frontier := [][]int{{}}
	ex := newExplorer(nprocs, factory, opts, nil, 0)
	probes := 0
	probeBudget := 8 * target
	for depth := 0; depth < opts.MaxDepth && len(frontier) < target && probes < probeBudget; depth++ {
		next := make([][]int, 0, len(frontier))
		for _, p := range frontier {
			if len(p) < depth || probes >= probeBudget {
				next = append(next, p) // already a leaf (or out of probes)
				continue
			}
			probes++
			ex.truncTo(0)
			ex.prefix = p
			_, err := ex.run(nil)
			if ex.capErr != nil {
				return nil, ex.capErr
			}
			if ex.diverged != nil {
				return nil, fmt.Errorf("trace: run failed on schedule %v: %w", ex.picks, ex.diverged)
			}
			if err != nil || len(ex.picks) <= depth {
				// The run failed, or ended without a decision at this level:
				// the prefix is a complete (single-run) subtree.
				next = append(next, p)
				continue
			}
			for _, c := range ex.enabledAt(depth) {
				child := make([]int, depth+1)
				copy(child, p)
				child[depth] = c
				next = append(next, child)
			}
		}
		frontier = next
	}
	return frontier, nil
}

// subViolation is one violation found inside a subtree, positioned by its
// run ordinal so the merge can apply MaxViolations at the exact run where
// an unsharded search would have stopped.
type subViolation struct {
	ord      int // run ordinal within the subtree
	truncCum int // truncated runs among ordinals [0, ord], inclusive
	// prunedCum and distinctCum position the pruned search's counters at
	// this violation: cut runs among ordinals [0, ord] (the violating run is
	// never cut) and states closed before the violating run's backtrack (a
	// violation cutoff stops the loop before closures).
	prunedCum   int
	distinctCum int
	v           Violation
}

// subtreeResult is one worker's report for one subtree: aggregate counts
// plus the per-run detail (violation ordinals, truncation bits, the failing
// run) the deterministic merge needs to re-cut the search exactly.
type subtreeResult struct {
	runs      int
	truncated int
	exhausted bool // the subtree's whole space was covered
	viols     []subViolation

	// pruned and distinct are the pruned search's counters (zero without
	// pruning).
	pruned   int
	distinct int

	// truncBits and pruneBits record, per run ordinal, whether the run was
	// truncated or cut; distCums[i] is the closed-state count through run i's
	// backtrack. All three are only tracked under a MaxRuns budget, where the
	// merge may need the counters of an arbitrary run prefix.
	truncBits  []uint64
	pruneBits  []uint64
	distCums   []int32
	trackTrunc bool

	// runErr is a failed run (engine error or replay divergence); errOrd
	// positions it, errTruncCum is the truncated count through it (the
	// failing run counts its truncation), and errPrunedCum/errDistinctCum
	// position the pruning counters like a violation's.
	runErr         error
	errOrd         int
	errTruncCum    int
	errPrunedCum   int
	errDistinctCum int

	// stopped marks a subtree abandoned by ExploreOpts.Interrupted: the merge
	// credits whatever it completed and returns ErrInterrupted.
	stopped bool

	// capErr is a system lacking a hook the options need. It is a
	// configuration error, not a run: the search returns it without a report.
	capErr error
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

func (sr *subtreeResult) setTruncBit(ord int) {
	if sr.trackTrunc {
		setBit(&sr.truncBits, ord)
	}
}

func (sr *subtreeResult) setPruneBit(ord int) {
	if sr.trackTrunc {
		setBit(&sr.pruneBits, ord)
	}
}

// recordDistCum records the closed-state count after the latest run's
// backtrack; the stateful loop calls it once per run, in ordinal order.
func (sr *subtreeResult) recordDistCum() {
	if sr.trackTrunc {
		sr.distCums = append(sr.distCums, int32(sr.distinct))
	}
}

// truncCount returns the number of truncated runs among ordinals [0, n).
func (sr *subtreeResult) truncCount(n int) int { return countBits(sr.truncBits, n) }

// exploreShared is the coordination state of one exploration.
type exploreShared struct {
	frontier [][]int
	// counters[i] counts runs started in subtree i. Their prefix sum over the
	// current wave is a monotone lower bound on the runs the merge will
	// credit before subtree i — the atomic budget handoff: subtree i stops as
	// soon as that bound plus its own runs reaches MaxRuns, which is provably
	// at or past the cutoff, and the merge trims the overshoot.
	counters []atomic.Int64
	// stopAfter is the smallest subtree index known to end the search (a
	// MaxRuns, MaxViolations or run-error cutoff); subtrees beyond it are
	// skipped or abandoned, and the merge never reads them.
	stopAfter atomic.Int64
	maxRuns   int
	maxViol   int
	// base is the exact number of runs credited before the current wave,
	// whose first subtree is lo: the runs of completed waves, or a
	// distributed lease's base.
	base, lo int
	// frozen pins every subtree's budget base to base. A pruned search needs
	// it: its report must not depend on how far sibling subtrees of the same
	// wave have got.
	frozen bool
}

func newExploreShared(frontier [][]int, opts ExploreOpts) *exploreShared {
	sh := &exploreShared{
		frontier: frontier,
		counters: make([]atomic.Int64, len(frontier)),
		maxRuns:  opts.MaxRuns,
		maxViol:  max(opts.MaxViolations, 1),
		frozen:   opts.Prune,
	}
	sh.stopAfter.Store(math.MaxInt64)
	return sh
}

func (sh *exploreShared) cutAt(i int) {
	for {
		cur := sh.stopAfter.Load()
		if cur <= int64(i) || sh.stopAfter.CompareAndSwap(cur, int64(i)) {
			return
		}
	}
}

// budgetBase returns the current lower bound on runs preceding subtree i in
// canonical order.
func (sh *exploreShared) budgetBase(i int) int {
	sum := sh.base
	if !sh.frozen {
		for j := sh.lo; j < i; j++ {
			sum += int(sh.counters[j].Load())
		}
	}
	return sum
}

// runWaves drains frontier in canonical waves of width subtrees on the
// worker pool and merges the results. Subtrees of one wave run in parallel;
// in a pruned search each sees the visited-state table frozen at the wave
// start plus its own closures, which are published (max-merged, so in any
// order) only at the wave barrier. Workers therefore only parallelize
// within a wave, and the report is the same for any worker count, Pruned and
// Distinct included. An unpruned search is a single wave.
func runWaves(nprocs int, factory Factory, opts ExploreOpts, frontier [][]int, width, workers int) (*ExploreReport, error) {
	sh := newExploreShared(frontier, opts)
	results := make([]*subtreeResult, len(frontier))
	var table *fpTable
	if opts.Prune {
		table = newFpTable()
	}
	opts.Obs.SetFrontier(len(frontier))
	for lo := 0; lo < len(frontier); lo += width {
		hi := min(lo+width, len(frontier))
		if int64(lo) > sh.stopAfter.Load() {
			break
		}
		waveStart := opts.Obs.WaveStart()
		sh.lo = lo
		caches := make([]*stateCache, hi-lo)
		RunOnPool(workers, hi-lo, func(j int) {
			i := lo + j
			if int64(i) > sh.stopAfter.Load() {
				return
			}
			ex := newExplorer(nprocs, factory, opts, sh, i)
			if table != nil {
				ex.cache = &stateCache{global: table, local: make(map[uint64]int)}
				caches[j] = ex.cache
			}
			results[i] = ex.explore()
		})
		for _, sr := range results[lo:hi] {
			if sr == nil {
				continue
			}
			if sr.capErr != nil {
				return nil, sr.capErr
			}
			sh.base += sr.runs
		}
		if sh.stopAfter.Load() < int64(hi) {
			break // the search ends inside this wave: nothing beyond merges
		}
		if table != nil {
			RunOnPool(workers, hi-lo, func(j int) { table.publish(caches[j].local) })
		}
		opts.Obs.WaveDone(lo/width, waveStart, len(frontier)-hi)
	}
	rep, err := mergeSubtrees(frontier, results, opts.MaxRuns, sh.maxViol, false)
	if err == nil && table != nil && rep.Exhausted {
		// An exhausted search published every wave, so the table holds the
		// union of all closures: the exact distinct-configuration count. The
		// merge's per-subtree sum counts a configuration closed independently
		// by sibling subtrees of one wave once per subtree; it remains the
		// (deterministic) value only when a cutoff trimmed the search and the
		// final wave never published.
		rep.Distinct = table.size()
	}
	return rep, err
}

// mergeSubtrees folds per-subtree results, in canonical DFS order, into the
// report an unsharded search would have produced: it credits each subtree's
// runs against the MaxRuns budget, re-applies the MaxViolations and
// run-error cutoffs at their exact run ordinals, and trims the speculative
// overshoot past the first cutoff. With interrupted set (the caller's
// context was cancelled mid-search), missing or partial subtrees terminate
// the merge with the report so far and ErrInterrupted instead of being
// internal errors.
func mergeSubtrees(frontier [][]int, results []*subtreeResult, maxRuns, maxViol int, interrupted bool) (*ExploreReport, error) {
	rep := &ExploreReport{}
	for i, sr := range results {
		budgetRem := math.MaxInt
		if maxRuns > 0 {
			budgetRem = maxRuns - rep.Runs
			if budgetRem <= 0 {
				return rep, nil // budget spent before this subtree
			}
		}
		if sr == nil {
			if interrupted {
				return rep, ErrInterrupted
			}
			return nil, fmt.Errorf("trace: internal: subtree %v was never explored", frontier[i])
		}
		// A subtree abandoned by ExploreOpts.Interrupted: credit what it
		// completed and stop — the partial report is best-effort.
		if sr.stopped {
			credit(rep, sr)
			return rep, ErrInterrupted
		}
		violRem := maxViol - len(rep.Violations)
		// MaxViolations cutoff inside this subtree? (Violation ordinals
		// always precede a run error's, since the worker stops on error.)
		if len(sr.viols) >= violRem && sr.viols[violRem-1].ord+1 <= budgetRem {
			v := sr.viols[violRem-1]
			rep.Runs += v.ord + 1
			rep.Truncated += v.truncCum
			rep.Pruned += v.prunedCum
			rep.Distinct += v.distinctCum
			for _, sv := range sr.viols[:violRem] {
				rep.Violations = append(rep.Violations, sv.v)
			}
			return rep, nil
		}
		// Run-error cutoff?
		if sr.errOrd >= 0 && sr.errOrd+1 <= budgetRem {
			rep.Runs += sr.errOrd + 1
			rep.Truncated += sr.errTruncCum
			rep.Pruned += sr.errPrunedCum
			rep.Distinct += sr.errDistinctCum
			for _, sv := range sr.viols {
				rep.Violations = append(rep.Violations, sv.v)
			}
			return rep, sr.runErr
		}
		// MaxRuns cutoff inside this subtree? (The boundary case — budget
		// spent exactly at the subtree's recorded runs without exhausting it
		// — is a subtree that stopped on budget with more prefixes left to
		// explore.)
		if budgetRem < sr.runs || (budgetRem == sr.runs && !sr.exhausted) {
			rep.Runs += budgetRem
			rep.Truncated += sr.truncCount(budgetRem)
			rep.Pruned += countBits(sr.pruneBits, budgetRem)
			if len(sr.distCums) >= budgetRem && budgetRem > 0 {
				rep.Distinct += int(sr.distCums[budgetRem-1])
			}
			for _, sv := range sr.viols {
				if sv.ord < budgetRem {
					rep.Violations = append(rep.Violations, sv.v)
				}
			}
			return rep, nil
		}
		// No cutoff here: credit the whole subtree.
		if !sr.exhausted {
			if interrupted {
				credit(rep, sr)
				return rep, ErrInterrupted
			}
			return nil, fmt.Errorf("trace: internal: partial subtree %v survived merging", frontier[i])
		}
		credit(rep, sr)
	}
	rep.Exhausted = true
	return rep, nil
}

// credit adds one whole subtree result — counters and violations — to the
// merged report.
func credit(rep *ExploreReport, sr *subtreeResult) {
	rep.Runs += sr.runs
	rep.Truncated += sr.truncated
	rep.Pruned += sr.pruned
	rep.Distinct += sr.distinct
	for _, sv := range sr.viols {
		rep.Violations = append(rep.Violations, sv.v)
	}
}
