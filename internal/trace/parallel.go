// Parallel schedule search: the frontier planner and the in-process loop
// over the wave protocol (waves.go) around the one subtree DFS loop
// (explorer.explore). Exhaustive exploration is embarrassingly parallel over
// independent subtrees, so the planner splits the DFS prefix tree into
// disjoint subtrees — it expands the first few decision levels into a
// frontier of prefixes in canonical DFS order — and a pool of workers drains
// them, a wave at a time, each worker with one explorer of its own. Each
// subtree stops on live lower bounds of the runs and violations of the
// subtrees before it, so its outcome is exact or overshoots the cutoff; the
// wave protocol re-opens the one subtree a cutoff lands in, which then runs
// on exact bases. The report is byte-identical for any worker count:
// violations in canonical schedule order, Runs/Truncated/Exhausted exact,
// MaxRuns and MaxViolations enforced at the exact run.
package trace

import (
	"fmt"
	"math"
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
	runOnPool(workers, n, func(_, i int) { fn(i) })
}

// runOnPool is RunOnPool with the claiming worker's index, w in
// [0, min(workers, n)), passed to fn beside i: calls with the same w never
// overlap, so fn may keep per-worker state in a slot indexed by w.
func runOnPool(workers, n int, fn func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
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
				fn(w, i)
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
	ex := newExplorer(nprocs, factory, opts, nil)
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

// exploreShared is the live state the subtrees of one wave share while they
// run; the wave protocol (Waves) only sees their outcomes afterwards.
type exploreShared struct {
	frontier [][]int
	// runs[i] and viols[i] count the runs started and violations found in
	// subtree i. With the exact totals before subtree lo, their prefix sums
	// are monotone lower bounds on the runs and violations the merge will
	// credit before subtree i — the atomic budget handoff: subtree i stops
	// as soon as a bound plus its own count reaches MaxRuns or MaxViolations,
	// which is at or past its exact stop.
	runs, viols []atomic.Int64
	// stopAfter is the smallest subtree index known to end the search (a
	// MaxRuns, MaxViolations or run-error cutoff), published as soon as the
	// subtree finds it; subtrees beyond it are skipped or abandoned, and the
	// merge never reads them.
	stopAfter atomic.Int64
	maxRuns   int
	maxViol   int
	// runBase and violBase are the exact runs and violations credited
	// before subtree lo: those of completed waves, of the wave's earlier
	// subtrees for a re-run, or a distributed lease's bases.
	runBase, violBase, lo int
}

func newExploreShared(frontier [][]int, opts ExploreOpts) *exploreShared {
	sh := &exploreShared{
		frontier: frontier,
		runs:     make([]atomic.Int64, len(frontier)),
		viols:    make([]atomic.Int64, len(frontier)),
		maxRuns:  opts.MaxRuns,
		maxViol:  opts.maxViolations(),
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

// base returns the current lower bound on the counts preceding subtree i in
// canonical order: sh.runs with sh.runBase, or sh.viols with sh.violBase.
func (sh *exploreShared) base(counts []atomic.Int64, exact, i int) int {
	for j := sh.lo; j < i; j++ {
		exact += int(counts[j].Load())
	}
	return exact
}

// runWaves drives the wave protocol in process: each wave's subtrees run on
// the worker pool, and their outcomes are added in index order at the
// barrier; a subtree the wave protocol re-opens runs again, on exact bases,
// until the window moves or the search completes. Subtrees of one wave run
// in parallel; in a pruned search each sees the visited-state table frozen
// at the wave start plus its own closures, which the barrier max-merges.
// Workers therefore only parallelize within a wave, and the report is the
// same for any worker count, Pruned and Distinct included. An unpruned
// search is a single wave.
func runWaves(nprocs int, factory Factory, opts ExploreOpts, frontier [][]int, width, workers int) (*ExploreReport, error) {
	w := NewWaves(frontier, width, opts)
	sh := newExploreShared(frontier, opts)
	opts.Obs.SetFrontier(len(frontier))
	// exs[k] is worker k's explorer, kept across every subtree and wave the
	// worker drains, so its engine, systems and checkpoint slots are built
	// once per worker rather than once per subtree.
	exs := make([]*explorer, workers)
	for {
		lo, hi := w.Window()
		waveStart := opts.Obs.WaveStart()
		for {
			var ids []int
			for i := lo; i < hi; i++ {
				if w.Open(i) {
					ids = append(ids, i)
				}
			}
			if len(ids) == 0 {
				break
			}
			sh.lo = ids[0]
			sh.runBase, sh.violBase = w.Base(ids[0])
			outs := make([]*SubtreeOutcome, len(ids))
			errs := make([]error, len(ids))
			runOnPool(workers, len(ids), func(k, j int) {
				if int64(ids[j]) > sh.stopAfter.Load() {
					return
				}
				if exs[k] == nil {
					exs[k] = newExplorer(nprocs, factory, opts, sh)
				}
				outs[j], errs[j] = exs[k].explore(ids[j], w.table.lookup)
			})
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
			for j, o := range outs {
				if o != nil {
					w.Add(ids[j], o)
				}
			}
			if next, _ := w.Window(); next != lo {
				break
			}
		}
		if next, _ := w.Window(); next == lo {
			break // the search ends inside this wave: nothing beyond merges
		}
		opts.Obs.WaveDone(lo/width, waveStart, len(frontier)-hi)
		if hi == len(frontier) {
			break
		}
	}
	return w.Merge(false)
}
