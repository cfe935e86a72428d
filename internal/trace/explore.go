// Package trace provides execution-history tooling: bounded exhaustive
// schedule exploration (this file), and offline linearization plus
// specification checking for the augmented snapshot object (see check.go).
//
// Exhaustive exploration has exactly one DFS loop, explorer.explore, which
// searches the subtree of schedules below one root prefix. Everything else
// arranges subtrees around it:
//
//   - Explore plans a frontier of disjoint subtree roots (parallel.go), runs
//     the loop over them in canonical waves on a worker pool, and merges the
//     per-subtree results into the report. A sequential search is the one
//     root {} drained by one worker.
//   - Pruning (stateful.go) gives the loop a visited-state cache and turns on
//     checkpointing; without it the cache is nil and every run replays its
//     prefix from a fresh system.
//   - RunSubtree (subtree.go) runs the same loop for one leased subtree of a
//     distributed search.
package trace

import (
	"fmt"
	"hash/maphash"

	"revisionist/internal/sched"
)

// ExploreOpts bounds an exhaustive exploration.
type ExploreOpts struct {
	// MaxDepth caps the number of scheduler steps per run; runs that reach it
	// are truncated (remaining processes treated as crashed), which is sound
	// for safety checking of colorless tasks because their specifications are
	// subset-closed.
	MaxDepth int
	// MaxRuns caps the number of explored schedules (0 = no cap).
	MaxRuns int
	// MaxViolations stops the search after this many violations (0 = 1).
	MaxViolations int
	// Engine is a compatibility field: job specs from when there was a
	// choice of engines name one here. Only "" and sched.EngineName (the one
	// engine) are accepted; Explore rejects anything else.
	Engine string
	// Workers sets the search worker-pool size: the DFS prefix tree is
	// sharded into disjoint subtrees (see parallel.go) drained by this many
	// workers, and the per-subtree results are merged back in canonical DFS
	// order, so the report is byte-identical to the sequential one for any
	// worker count. 0 selects GOMAXPROCS; 1 explores the whole tree as one
	// subtree on the calling goroutine.
	Workers int
	// Prune enables state-fingerprint pruning (see stateful.go): the
	// configuration hash after each decision is looked up in a visited-state
	// cache and the subtree is cut when that configuration was already fully
	// explored with at least as much remaining depth. Sound for safety
	// checking when System.Check is a function of the reachable state (the
	// task validators are); the violation set and Exhausted flag match the
	// unpruned search, while Runs, Truncated and the violation multiset may
	// shrink (a violation reachable only through already-covered states is
	// reported once, not once per schedule). A pruned search also
	// checkpoints the engine and system state at each branching decision on
	// the current path and forks the next run from the deepest common prefix
	// instead of replaying the whole schedule. Requires System.Fingerprint,
	// System.Fork and System.Machines. The report is identical for any
	// Workers value.
	Prune bool
	// Symmetry enables symmetry-reduced pruning: the visited-state cache
	// stores canonical fingerprints (System.CanonicalFingerprint) that
	// collapse process-permutation orbits, so a configuration is pruned when
	// any member of its orbit was fully explored. Exact for the same class of
	// systems Prune is: the violation set and Exhausted flag match the
	// unreduced search up to renaming interchangeable processes (a violation
	// is reported iff its orbit contains one). Requires Prune — symmetry only
	// changes which fingerprint the cache stores — and
	// System.CanonicalFingerprint. The report is identical for any Workers
	// value, and is a no-op (identical to plain Prune modulo hash values) on
	// systems with no declared symmetry.
	Symmetry bool
	// Interrupted, when non-nil, is polled between schedules (at every DFS
	// loop top, on every worker). When it returns true the search stops after
	// the current run and Explore returns the partial report accumulated so
	// far — runs, truncations and violations already found, merged across
	// whatever subtrees completed — alongside ErrInterrupted. The partial
	// report is best-effort: unlike a completed search it may depend on
	// worker scheduling. Excluded from the wire encoding of the distributed
	// search (a remote worker cannot poll a local closure).
	Interrupted func() bool `json:"-"`
	// Obs, when non-nil, receives search metrics (runs, cuts, closures, wave
	// barriers) as the exploration proceeds. A pure side channel: the report
	// is byte-identical with Obs set or nil. Like Interrupted it is local
	// state and never crosses the wire.
	Obs *SearchObs `json:"-"`
}

// Violation is one failing schedule.
type Violation struct {
	Schedule []int // scheduler picks, replayable with sched.Replay
	Err      error
}

// ExploreReport summarizes an exhaustive exploration.
type ExploreReport struct {
	Runs       int
	Truncated  int // runs cut off at MaxDepth
	Violations []Violation
	Exhausted  bool // the whole schedule space within MaxDepth was covered
	// Pruned counts runs cut by the visited-state cache (ExploreOpts.Prune):
	// the run reached a configuration already fully explored with at least as
	// much remaining depth and its subtree was skipped. Distinct counts the
	// configurations recorded as fully explored: exact for an exhausted
	// search; when a bound cut the search short it is the deterministic
	// per-subtree sum, which counts a configuration closed independently by
	// sibling subtrees of one wave once per subtree. Both are zero without
	// pruning.
	Pruned   int
	Distinct int
}

// System is one freshly constructed system instance to execute and check.
// Factory functions wire their shared objects to the provided step gate,
// which is the engine the system will run on.
type System struct {
	// Machines are the resumable step machines, one per process, that the
	// engine dispatches directly. See proto.Machines for the
	// protocol-process adapter and sched.Processes for processes that
	// are sequences of multi-step operations.
	Machines []sched.Machine
	// Check is called after the run with the scheduler result; returning an
	// error marks the schedule as violating. res is valid only during the
	// call: the explorer restarts its engine for the next run, which reuses
	// the buffers res aliases.
	Check func(res *sched.Result) error
	// Score, when non-nil, overrides the Fuzz metric for this system. A
	// metric that inspects per-run state (operation logs, outputs) must be
	// captured here, per system, rather than in a closure shared across
	// evaluations: with Workers > 1 several systems are evaluated at once.
	Score func(res *sched.Result) float64
	// Fingerprint, when non-nil, appends the system's full configuration —
	// every shared object's state and every process's state, in a fixed
	// order — to h, following the contract of sched.Fingerprinter. Required
	// by ExploreOpts.Prune; called only at scheduler decision points, where
	// the system is quiescent.
	Fingerprint func(h *maphash.Hash)
	// CanonicalFingerprint, when non-nil, returns the symmetry-reduced
	// configuration fingerprint: the minimum configuration hash over the
	// system's process-permutation group (see sched.Canonicalizer), so all
	// configurations of one orbit fingerprint identically. Required by
	// ExploreOpts.Symmetry; called only at decision points. h is scratch
	// space for the group minimization.
	CanonicalFingerprint func(h *maphash.Hash) uint64
	// Fork, when non-nil, returns a deep copy of the system in its current
	// state, wired to gate: cloned processes and machines, cloned shared
	// objects, and Check/Fingerprint/Fork hooks bound to the copy. Required
	// by ExploreOpts.Prune; called only at decision points.
	Fork func(gate sched.Stepper) System
}

// Factory builds one fresh system wired to the given step gate. Explore
// builds a new system for every schedule it runs from scratch (a pruned
// search resumes the others from forks), on the searching explorer's one
// engine; Fuzz builds one engine and one system per evaluation. With
// Workers > 1 the factory is called from several workers concurrently, so
// consecutive calls must not share mutable state: everything a system
// touches — shared objects, processes, check state — must be built fresh per
// call.
//
// Systems must also be deterministic: every run replays a recorded prefix of
// scheduler picks, so consecutive calls must behave identically. A replayed
// pick that is not enabled — the signature of a nondeterministic factory —
// fails the search with a replay-divergence error on every path: sequential,
// parallel, pruned, and a distributed worker's subtree.
type Factory func(gate sched.Stepper) System

// Explore enumerates schedules of the nprocs-process system produced by
// factory, depth-first over scheduler choices, until the space is exhausted
// or a bound is hit. Each schedule runs on a freshly built system or, when
// pruning, resumes from a checkpoint; an explorer restarts one engine for all
// of its runs. The DFS tree is sharded into subtrees drained by opts.Workers
// workers; the report is byte-identical for any worker count.
func Explore(nprocs int, factory Factory, opts ExploreOpts) (*ExploreReport, error) {
	if err := validateOpts(opts); err != nil {
		return nil, err
	}
	workers := ResolveWorkers(opts.Workers)
	target := 1 // one root: the sequential search
	if workers > 1 {
		target = min(frontierTarget*workers, maxFrontier)
	}
	frontier, width, err := plan(nprocs, factory, opts, target)
	if err != nil {
		return nil, err
	}
	return runWaves(nprocs, factory, opts, frontier, width, workers)
}

// validateOpts checks the option contracts that need no system: the depth
// bound, the compatibility engine name, and what symmetry requires. The
// hooks a pruned search needs from the system are checked on the first
// system the search builds (see explorer.run).
func validateOpts(opts ExploreOpts) error {
	if opts.MaxDepth <= 0 {
		return fmt.Errorf("trace: MaxDepth must be positive")
	}
	if opts.Symmetry && !opts.Prune {
		return fmt.Errorf("trace: ExploreOpts.Symmetry requires Prune (symmetry reduction only changes which fingerprint the visited-state cache stores)")
	}
	if err := sched.CheckEngine(opts.Engine); err != nil {
		return fmt.Errorf("trace: ExploreOpts.Engine: %w", err)
	}
	return nil
}

// capabilities checks a freshly built system against the hooks opts needs.
func capabilities(sys *System, opts ExploreOpts) error {
	if !opts.Prune {
		return nil
	}
	if sys.Fingerprint == nil {
		return fmt.Errorf("trace: ExploreOpts.Prune requires System.Fingerprint (the factory's systems expose no configuration fingerprint)")
	}
	if opts.Symmetry && sys.CanonicalFingerprint == nil {
		return fmt.Errorf("trace: ExploreOpts.Symmetry requires System.CanonicalFingerprint (the factory's systems expose no symmetry-reduced fingerprint)")
	}
	if sys.Fork == nil {
		return fmt.Errorf("trace: ExploreOpts.Prune requires System.Fork (the factory's systems expose no deep copy)")
	}
	return nil
}

// explorer runs the DFS loop over one subtree, and is that loop's
// sched.Strategy: each run replays the target prefix, then always picks the
// first enabled process, recording every decision so the loop can backtrack
// to siblings. The path state (picks, enabled sets, fingerprints,
// checkpoints) persists across runs and is truncated to the resume depth, so
// a run resumed from a checkpoint never re-records the shared prefix, and
// recording a step allocates nothing once the arenas are warm. The frontier
// planner drives the same strategy, one probe run at a time.
type explorer struct {
	nprocs  int
	factory Factory
	opts    ExploreOpts

	i     int // subtree index (canonical order)
	floor int // root prefix length; backtracking never unwinds above it
	sh    *exploreShared

	// cache is the visited-state view of a pruned search, nil otherwise.
	// Checkpointing is on exactly when it is set.
	cache *stateCache

	// Persistent path state, indexed by absolute decision depth: offs[d]..
	// offs[d+1] frames depth d's enabled set in flat.
	flat  []int
	offs  []int
	picks []int
	fps   []uint64
	cps   []checkpoint

	// Per-run state.
	prefix   []int // picks to replay, by absolute depth
	sys      System
	eng      *sched.SeqEngine // the explorer's engine, restarted per run
	trunc    bool             // the run hit MaxDepth
	cut      bool             // the run reached an already-closed state
	diverged error            // replay divergence: a prefix pick was not enabled
	capErr   error            // the system lacks a hook the options need

	h  maphash.Hash
	sr *subtreeResult
}

func newExplorer(nprocs int, factory Factory, opts ExploreOpts, sh *exploreShared, i int) *explorer {
	ex := &explorer{nprocs: nprocs, factory: factory, opts: opts, sh: sh, i: i, offs: []int{0}}
	if sh != nil {
		ex.floor = len(sh.frontier[i])
	}
	if opts.Prune {
		ex.h = sched.NewFingerprintHash()
	}
	return ex
}

func (ex *explorer) Pick(step int, enabled []int) int {
	if step >= ex.opts.MaxDepth {
		ex.trunc = true
		return sched.Halt
	}
	if ex.cache != nil {
		var fp uint64
		if ex.opts.Symmetry {
			fp = ex.sys.CanonicalFingerprint(&ex.h)
		} else {
			ex.h.Reset()
			ex.sys.Fingerprint(&ex.h)
			fp = ex.h.Sum64()
		}
		ex.fps = append(ex.fps, fp)
		if rem, ok := ex.cache.lookup(fp); ok && rem >= ex.opts.MaxDepth-step {
			ex.cut = true
			return sched.Halt
		}
		// Checkpoint only at branch points: backtracking always diverges at
		// a depth with an unexplored sibling, so forks taken on forced
		// single-successor chains could never seed a resume — and every
		// resume then starts exactly at the divergence depth, replaying
		// nothing.
		if step >= ex.floor && len(enabled) > 1 &&
			(len(ex.cps) == 0 || ex.cps[len(ex.cps)-1].depth < step) {
			ex.cps = append(ex.cps, checkpoint{depth: step, sys: ex.sys.Fork(noopStepper{}), cp: ex.eng.Checkpoint()})
		}
	}
	pick := enabled[0]
	if step < len(ex.prefix) {
		pick = ex.prefix[step]
		if !pidEnabled(enabled, pick) {
			// Deterministic systems replay identically; reaching here means
			// the factory is nondeterministic, which the explorer cannot
			// handle: exploring on would silently visit a different tree.
			// Record the divergence and halt; the run surfaces it as an error.
			ex.diverged = replayDivergence(step, pick, enabled)
			return sched.Halt
		}
	}
	ex.flat = append(ex.flat, enabled...)
	ex.offs = append(ex.offs, len(ex.flat))
	ex.picks = append(ex.picks, pick)
	return pick
}

// enabledAt returns the recorded enabled set of decision depth d.
func (ex *explorer) enabledAt(d int) []int {
	return ex.flat[ex.offs[d]:ex.offs[d+1]]
}

// run executes one schedule of ex.prefix: resumed from checkpoint from when
// one covers the prefix, on a freshly built system otherwise. Either way it
// runs on the explorer's one engine, restarted per run. A system that lacks
// a hook the options need is not run; ex.capErr reports it.
func (ex *explorer) run(from *checkpoint) (*sched.Result, error) {
	ex.trunc, ex.cut, ex.diverged = false, false, nil
	if ex.eng == nil {
		ex.eng = sched.NewSeqEngine(ex.nprocs, ex)
	}
	if from != nil {
		ex.eng.Restart(ex, from.cp)
		ex.sys = from.sys.Fork(ex.eng)
		return ex.eng.RunMachines(ex.sys.Machines)
	}
	ex.eng.Restart(ex, nil)
	ex.sys = ex.factory(ex.eng)
	if ex.capErr = capabilities(&ex.sys, ex.opts); ex.capErr != nil {
		return nil, ex.capErr
	}
	return ex.eng.RunMachines(ex.sys.Machines)
}

// explore runs the DFS loop over subtree ex.i: run, account, check,
// backtrack, budget. Cut runs skip the check and count as pruned, completed
// nodes are closed into the cache, and the next run forks from the deepest
// checkpoint at or above the divergence depth. The budget and stop checks
// read the shared lower bounds of exploreShared, and every run is recorded
// by ordinal so the merge can re-cut the search at any run.
func (ex *explorer) explore() *subtreeResult {
	sh := ex.sh
	sr := &subtreeResult{errOrd: -1, trackTrunc: sh.maxRuns > 0}
	ex.sr = sr
	if sh.maxRuns > 0 && sh.budgetBase(ex.i) >= sh.maxRuns {
		sh.cutAt(ex.i)
		return sr // earlier subtrees alone exhaust the budget
	}
	ex.prefix = append(ex.prefix[:0], sh.frontier[ex.i]...)
	var from *checkpoint
	for {
		if int64(ex.i) > sh.stopAfter.Load() {
			return sr // an earlier subtree already ends the search
		}
		if ex.opts.Interrupted != nil && ex.opts.Interrupted() {
			sr.stopped = true
			sh.cutAt(ex.i)
			return sr
		}
		sh.counters[ex.i].Add(1)
		res, err := ex.run(from)
		if ex.capErr != nil {
			sr.capErr = ex.capErr
			sh.cutAt(ex.i)
			return sr
		}
		ord := sr.runs
		sr.runs++
		if ex.trunc {
			sr.truncated++
			sr.setTruncBit(ord)
		}
		if ex.cut {
			sr.pruned++
			sr.setPruneBit(ord)
		}
		ex.opts.Obs.RunDone(ex.trunc, ex.cut, ex.opts.Symmetry)
		if err == nil {
			err = ex.diverged
		}
		if err != nil {
			sr.runErr = fmt.Errorf("trace: run failed on schedule %v: %w", ex.picks, err)
			sr.errOrd, sr.errTruncCum = ord, sr.truncated
			sr.errPrunedCum, sr.errDistinctCum = sr.pruned, sr.distinct
			sh.cutAt(ex.i)
			return sr
		}
		if !ex.cut {
			if cerr := ex.sys.Check(res); cerr != nil {
				sch := append([]int(nil), ex.picks...)
				sr.viols = append(sr.viols, subViolation{ord: ord, truncCum: sr.truncated,
					prunedCum: sr.pruned, distinctCum: sr.distinct,
					v: Violation{Schedule: sch, Err: cerr}})
				if len(sr.viols) >= sh.maxViol {
					sh.cutAt(ex.i)
					return sr
				}
			}
		}
		d := ex.backtrack()
		if ex.cache != nil {
			ex.closeStates(d)
			sr.recordDistCum()
		}
		if d < 0 {
			sr.exhausted = true
			return sr
		}
		// The budget check sits after the backtrack, so a subtree that stops
		// on budget has already learned whether it was exhausted, which the
		// merge needs for the exact Exhausted flag.
		if sh.maxRuns > 0 && sh.budgetBase(ex.i)+sr.runs >= sh.maxRuns {
			sh.cutAt(ex.i)
			return sr
		}
		base := 0
		from = nil
		if ex.cache != nil {
			for len(ex.cps) > 0 && ex.cps[len(ex.cps)-1].depth > d {
				ex.cps = ex.cps[:len(ex.cps)-1]
			}
			if len(ex.cps) > 0 {
				from = &ex.cps[len(ex.cps)-1]
				base = from.depth
			}
		}
		ex.truncTo(base)
	}
}

// backtrack loads the next prefix in DFS order into ex.prefix — the current
// path up to the deepest decision with an unexplored sibling, then that
// sibling — and returns that decision's depth, or -1 when the subtree is
// exhausted. It never unwinds above the subtree root.
func (ex *explorer) backtrack() int {
	for d := len(ex.picks) - 1; d >= ex.floor; d-- {
		opts := ex.enabledAt(d)
		for i, pid := range opts {
			if pid != ex.picks[d] {
				continue
			}
			if i+1 < len(opts) {
				ex.prefix = append(append(ex.prefix[:0], ex.picks[:d]...), opts[i+1])
				return d
			}
			break
		}
	}
	return -1
}

// truncTo truncates the persistent path state to the resume depth: decisions
// below it will be re-recorded by the next run (with checkpointing, only the
// suffix past the checkpoint is).
func (ex *explorer) truncTo(base int) {
	ex.picks = ex.picks[:base]
	ex.flat = ex.flat[:ex.offs[base]]
	ex.offs = ex.offs[:base+1]
	if len(ex.fps) > base {
		ex.fps = ex.fps[:base]
	}
}

// pidEnabled reports whether pick appears in the sorted enabled set.
func pidEnabled(enabled []int, pick int) bool {
	for _, pid := range enabled {
		if pid == pick {
			return true
		}
	}
	return false
}

// replayDivergence builds the error reported when a replayed prefix pick is
// not enabled — the signature of a nondeterministic factory.
func replayDivergence(step, pick int, enabled []int) error {
	return fmt.Errorf("trace: schedule replay diverged at step %d: recorded pick %d is not in the enabled set %v; Explore requires the factory to build deterministic systems (consecutive calls must produce identical behaviour)", step, pick, enabled)
}
