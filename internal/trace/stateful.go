// Stateful exploration: subtree checkpointing and state-fingerprint pruning
// for the exhaustive schedule search. Every search whose systems restore in
// place (System.Restore), pruned or not, checkpoints the sequential engine
// and system state at every branching decision on the current path and
// resumes the next schedule from the deepest common prefix instead of
// replaying it from the root: the explorer's live system is restored in
// place from the checkpoint. On symmetric protocols huge numbers of
// interleavings converge to identical configurations and would be
// re-explored in full; a pruned search (ExploreOpts.Prune) also hashes the
// configuration — every shared object and every process state, via the
// fingerprint contract of sched.Fingerprinter — at each scheduler decision
// and cuts the subtree when that configuration was already fully explored
// with at least as much remaining depth (classic state caching). Both live
// in the one DFS loop (explorer in explore.go); this file holds a subtree's
// visited-state cache and the checkpoint stack entries.
//
// Soundness of the prune (safety checking): a configuration determines the
// set of configurations reachable from it within a step budget, and every
// System.Check the harness installs is a function of the final configuration
// (task validation over recorded outputs). A state closed with remaining
// depth r therefore has every check outcome below it, up to depth r, already
// examined; cutting a later visit with remaining depth <= r can only drop
// duplicate outcomes. The violation *set* and the Exhausted flag match the
// unpruned search; Runs, Truncated and the violation multiset may shrink.
// Checks that read per-run history (an operation log) are NOT functions of
// the configuration — do not prune those systems. 64-bit fingerprints admit
// hash collisions (a collision could wrongly cut a subtree), the standard,
// vanishingly-unlikely trade of fingerprint-based state caching.
//
// Each visited decision node is hashed and looked up once. A run resumed
// from a checkpoint starts at the checkpoint's node, and it reuses that
// node's fingerprint from the path (truncTo keeps it) and skips the lookup,
// whose verdict — not cut — cannot have changed:
//
//   - a checkpoint is pushed only after its node's lookup passed;
//   - until the path backtracks above that node, the subtree's cache gains
//     only closures of strictly deeper nodes, which have less remaining
//     depth, so none of them can cut the node (an entry the node's lookup
//     saw was already too shallow, and max-merging keeps it so);
//   - the frozen wave table does not change during a wave.
//
// The skip is therefore exact: Runs, Pruned and Distinct are what a search
// that looks the node up again reports.
//
// Determinism across worker counts: cache *visibility* is structured so the
// report cannot depend on scheduling. The frontier is expanded by whole
// levels to a worker-independent size, subtrees run in canonical waves of
// fixed width (the wave protocol, waves.go), each subtree sees the merged
// table frozen as of its wave start plus its own private closures, and
// private closures are max-merged (order-independent) into the table only at
// the wave barrier. Reads during a wave therefore take no lock. Where a
// subtree stops does depend on scheduling — it stops on live lower bounds of
// the runs and violations before it — but the merge credits only its exact
// outcome, a function of its root and the frozen table alone, and runs it
// again on exact bases when it overshot a cutoff.
package trace

import (
	"cmp"
	"slices"

	"revisionist/internal/sched"
)

// pruneFrontierTarget is the frontier size a pruned exploration expands
// toward, independent of Workers (the cache-sharing structure must not
// depend on them). The frontier is the first whole level that reaches it,
// so it may be larger: 64 subtrees for firstvalue-consensus n=4 depth 12.
const pruneFrontierTarget = 32

// pruneWaveWidth is the number of subtrees per wave: subtrees within a wave
// share no closures (determinism), waves share through the merged table. It
// also caps a pruned exploration's effective parallelism.
const pruneWaveWidth = 8

// stateCache is one subtree's view of the visited states: the merged table
// (frozen for the duration of the wave) plus the subtree's private closures.
type stateCache struct {
	global func(fp uint64) (int, bool) // nil for a single-subtree exploration
	local  StateTable
}

func (c *stateCache) lookup(fp uint64) (int, bool) {
	rem, ok := c.local[fp]
	if c.global != nil {
		if g, gok := c.global(fp); gok && (!ok || g > rem) {
			return g, true
		}
	}
	return rem, ok
}

// close records fp as fully explored to rem further levels and reports
// whether the configuration is newly recorded (a distinct state).
func (c *stateCache) close(fp uint64, rem int) bool {
	_, seen := c.local[fp]
	c.local.Join(FpEntry{Fp: fp, Rem: rem})
	if seen {
		return false
	}
	if c.global != nil {
		if _, gok := c.global(fp); gok {
			return false
		}
	}
	return true
}

// closures returns the private closures sorted by fingerprint, the form an
// outcome carries to the wave barrier.
func (c *stateCache) closures() []FpEntry {
	out := make([]FpEntry, 0, len(c.local))
	for fp, rem := range c.local {
		out = append(out, FpEntry{Fp: fp, Rem: rem})
	}
	slices.SortFunc(out, func(a, b FpEntry) int { return cmp.Compare(a.Fp, b.Fp) })
	return out
}

// noopStepper gates nothing: an explorer's pristine root and its frozen
// checkpoint systems are wired to it — they never execute (a run restores
// the live system, wired to the engine, from them).
type noopStepper struct{}

func (noopStepper) Step(int, sched.Op) {}

// checkpoint is one entry of the checkpoint stack: the configuration after
// `depth` steps, frozen in a system of its own plus the engine's scheduling
// state. Resuming restores the explorer's live system from the frozen one
// and restarts the engine from the scheduling state, so one checkpoint can
// seed every sibling subtree below it. A slot keeps both when the stack is
// truncated, and the next push into it refills them in place.
type checkpoint struct {
	depth int
	sys   System
	cp    *sched.SeqCheckpoint
}

// closeStates records as fully explored every node on the current path whose
// last child subtree just completed: the depths deeper than next, the backtrack's
// divergence depth (-1 when the subtree is done), that its sweep passed
// without finding an unexplored sibling. A cut or truncated leaf is not
// closed (it was not explored here), and nodes above the subtree root belong
// to sibling subtrees and other workers.
func (ex *explorer) closeStates(next int) {
	for d := max(next+1, ex.floor); d < len(ex.picks); d++ {
		if ex.cache.close(ex.fps[d], ex.opts.MaxDepth-d) {
			ex.o.Distinct++
			ex.opts.Obs.StateClosed()
		}
	}
}
