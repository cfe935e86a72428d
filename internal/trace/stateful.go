// Stateful exploration: state-fingerprint pruning and subtree checkpointing
// for the exhaustive schedule search. On symmetric protocols huge numbers of
// interleavings converge to identical configurations and would be
// re-explored in full. A pruned search hashes the configuration — every
// shared object and every process state, via the fingerprint contract of
// sched.Fingerprinter — at each scheduler decision and cuts the subtree when
// that configuration was already fully explored with at least as much
// remaining depth (classic state caching). It also checkpoints the
// sequential engine and system state at every branching decision on the
// current path and forks the next schedule from the deepest common prefix
// instead of replaying it from the root. Both live in the one DFS loop
// (explorer in explore.go); this file holds the visited-state table and
// cache, and the checkpoint stack entries.
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
// Determinism across worker counts: the visited-state cache is shared
// through a lock-striped table sharded by hash prefix, but cache *visibility*
// is structured so the report cannot depend on scheduling: the frontier is
// expanded to a fixed, worker-independent size, subtrees are processed in
// canonical waves of fixed width (runWaves in parallel.go), each subtree sees
// the global table frozen as of its wave start plus its own private
// closures, and private closures are published (max-merged,
// order-independent) only at the wave barrier.
package trace

import (
	"sync"

	"revisionist/internal/sched"
)

// pruneFrontierTarget is the fixed frontier size of a pruned exploration:
// worker-independent (the cache-sharing structure must not depend on
// Workers), large enough to keep a pool busy.
const pruneFrontierTarget = 32

// pruneWaveWidth is the number of subtrees per wave: subtrees within a wave
// share no closures (determinism), waves share through the global table. It
// also caps a pruned exploration's effective parallelism.
const pruneWaveWidth = 8

// fpStripeBits is the hash-prefix width selecting a stripe of the table.
const fpStripeBits = 6

// fpTable is the lock-striped visited-state table shared across subtrees:
// fingerprint -> the largest remaining depth to which that configuration has
// been fully explored. Stripes are selected by the top hash bits. Writes
// (publish) happen only between waves, under the stripe locks; reads during
// a wave are lock-free, ordered against the writes by the pool barrier.
type fpTable struct {
	stripes [1 << fpStripeBits]struct {
		mu sync.Mutex
		m  map[uint64]int
	}
}

func newFpTable() *fpTable {
	t := &fpTable{}
	for i := range t.stripes {
		t.stripes[i].m = make(map[uint64]int)
	}
	return t
}

func (t *fpTable) lookup(fp uint64) (int, bool) {
	rem, ok := t.stripes[fp>>(64-fpStripeBits)].m[fp]
	return rem, ok
}

// publish max-merges one subtree's private closures into the table. The
// result is a per-entry maximum, so the table contents after a barrier do
// not depend on publish order.
func (t *fpTable) publish(local map[uint64]int) {
	for fp, rem := range local {
		s := &t.stripes[fp>>(64-fpStripeBits)]
		s.mu.Lock()
		if cur, ok := s.m[fp]; !ok || rem > cur {
			s.m[fp] = rem
		}
		s.mu.Unlock()
	}
}

// size returns the number of distinct configurations in the table.
func (t *fpTable) size() int {
	n := 0
	for i := range t.stripes {
		n += len(t.stripes[i].m)
	}
	return n
}

// fpSource is a read-only view of previously closed states. The in-process
// explorer reads an fpTable frozen at the wave barrier; a distributed worker
// reads its mirror of the coordinator's table, frozen the same way (deltas
// are only applied between leases of different waves).
type fpSource interface {
	lookup(fp uint64) (int, bool)
}

// fpFunc adapts a plain lookup function (the exported RunSubtree surface) to
// fpSource.
type fpFunc func(fp uint64) (int, bool)

func (f fpFunc) lookup(fp uint64) (int, bool) { return f(fp) }

// stateCache is one subtree's view of the visited states: the global table
// (frozen for the duration of the wave) plus the subtree's private closures.
type stateCache struct {
	global fpSource // nil for a single-subtree exploration
	local  map[uint64]int
}

func (c *stateCache) lookup(fp uint64) (int, bool) {
	rem, ok := c.local[fp]
	if c.global != nil {
		if g, gok := c.global.lookup(fp); gok && (!ok || g > rem) {
			return g, true
		}
	}
	return rem, ok
}

// close records fp as fully explored to rem further levels and reports
// whether the configuration is newly recorded (a distinct state).
func (c *stateCache) close(fp uint64, rem int) bool {
	prev, ok := c.local[fp]
	if ok {
		if rem > prev {
			c.local[fp] = rem
		}
		return false
	}
	c.local[fp] = rem
	if c.global != nil {
		if _, gok := c.global.lookup(fp); gok {
			return false
		}
	}
	return true
}

// noopStepper gates nothing: frozen checkpoint copies are wired to it — they
// never execute (resumption forks them again onto a live engine).
type noopStepper struct{}

func (noopStepper) Step(int, sched.Op) {}

// checkpoint is one entry of the checkpoint stack: the configuration after
// `depth` steps, frozen as a forked system plus the engine's scheduling
// state. Resuming forks the frozen system once more onto the explorer's
// restarted engine, so one checkpoint can seed every sibling subtree below
// it.
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
			ex.sr.distinct++
			ex.opts.Obs.StateClosed()
		}
	}
}
