// Package trace provides execution-history tooling: bounded exhaustive
// schedule exploration (this file), and offline linearization plus
// specification checking for the augmented snapshot object (see check.go).
//
// Exhaustive exploration has exactly one DFS loop, explorer.explore, which
// searches the subtree of schedules below one root prefix. Everything else
// arranges subtrees around it:
//
//   - Explore plans a frontier of disjoint subtree roots (parallel.go) and
//     runs the loop over them on a worker pool, driving the wave protocol
//     (waves.go) that merges the subtree outcomes into the report. A
//     sequential search is the one root {} drained by one worker.
//   - Checkpointing (stateful.go) resumes each run from the deepest
//     checkpoint on the path it shares with the previous run, whenever the
//     systems restore in place (System.Restore); a system without Restore
//     replays every run's prefix from the initial configuration.
//   - Pruning (stateful.go) gives the loop a visited-state cache; without it
//     the cache is nil.
//   - RunSubtree (subtree.go) runs the same loop for one leased subtree of a
//     distributed search, whose coordinator drives the same wave protocol.
package trace

import (
	"fmt"
	"hash/maphash"
	"slices"

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
	// reported once, not once per schedule). Requires System.Fingerprint,
	// System.Restore and System.Machines. The report is identical for any
	// Workers value. Checkpointing is not tied to it: every search whose
	// systems restore resumes each run from the deepest common prefix.
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

// maxViolations is the MaxViolations cutoff in force: 0 means 1.
func (opts ExploreOpts) maxViolations() int { return max(opts.MaxViolations, 1) }

// Violation is one failing schedule. Err carries the check's message, the
// same whether the subtree ran in process or on a distributed worker.
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

// System is one system instance to execute and check. Factory functions
// wire their shared objects to the provided step gate, which is the engine
// the system will run on. The hooks are bound to the instance: they read and
// write its state, whatever Restore last copied into it.
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
	// Fingerprint, when non-nil, writes the system's full configuration —
	// every shared object's state and every process's state, in a fixed
	// order — to h, a reset hash with the process-wide fingerprint seed
	// (sched.NewFingerprintHash). Systems encode it into a sched.FP they
	// reuse, following the contract of sched.Fingerprinter, and write the
	// stream in one Write. Required by ExploreOpts.Prune; called only at
	// scheduler decision points, where the system is quiescent.
	Fingerprint func(h *maphash.Hash)
	// CanonicalFingerprint, when non-nil, returns the symmetry-reduced
	// configuration fingerprint: the minimum configuration hash over the
	// system's process-permutation group (see sched.Canonicalizer), so all
	// configurations of one orbit fingerprint identically. Required by
	// ExploreOpts.Symmetry; called only at decision points. h is scratch
	// space a system may ignore (sched.Canonicalizer hashes an FP).
	CanonicalFingerprint func(h *maphash.Hash) uint64
	// Restore, when non-nil, copies the configuration of from — a system
	// built by the same factory, on any gate — into this system in place:
	// every shared object's state, every process's state and the recorded
	// outputs, so that this system then runs, checks and fingerprints as
	// from would. The system stays wired to its own gate, and the two share
	// no mutable state afterwards. Called only while both are quiescent:
	// between runs, or with from at a decision point. Required by
	// ExploreOpts.Prune; with it, pruned or not, an explorer runs every
	// schedule on one live system instead of building one per run, and
	// resumes each run from a checkpoint instead of replaying its prefix.
	Restore func(from System)
	// Fork is never called: Restore replaced it. The field remains so that
	// code wrapping System hooks by field keeps compiling.
	Fork func(gate sched.Stepper) System
}

// Factory builds one fresh system wired to the given step gate. An explorer
// builds its systems with it once: a live system on its engine, a pristine
// copy of the initial configuration, and one frozen system per checkpoint
// slot; each run then starts by restoring the live system from the pristine
// one or from a checkpoint (System.Restore). A system without Restore is
// instead rebuilt for every schedule and run from scratch. Fuzz builds one
// engine and one system per evaluation. With Workers > 1 the factory is
// called from several workers concurrently, so consecutive calls must not
// share mutable state: everything a system touches — shared objects,
// processes, check state — must be built fresh per call.
//
// Systems must also be deterministic: every run replays a recorded prefix of
// scheduler picks, so consecutive calls must behave identically. A replayed
// pick that is not enabled — the signature of a nondeterministic factory —
// fails the search with a replay-divergence error on every path: sequential,
// parallel, pruned, and a distributed worker's subtree.
type Factory func(gate sched.Stepper) System

// Explore enumerates schedules of the nprocs-process system produced by
// factory, depth-first over scheduler choices, until the space is exhausted
// or a bound is hit. Each schedule resumes from a checkpoint at its
// divergence from the previous one, or starts from the initial configuration
// when the systems cannot restore; an explorer restarts one engine and
// restores one live system for all of its runs. The DFS tree is sharded
// into subtrees drained by opts.Workers workers; the report is
// byte-identical for any worker count.
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
	if sys.Restore == nil {
		return fmt.Errorf("trace: ExploreOpts.Prune requires System.Restore (the factory's systems cannot copy a configuration in place)")
	}
	return nil
}

// explorer runs the DFS loop over one subtree at a time, and is that loop's
// sched.Strategy: each run replays the target prefix, then always picks the
// first enabled process, recording every decision so the loop can backtrack
// to siblings. The path state (picks, enabled sets, fingerprints,
// checkpoints) persists across runs and is truncated to the resume depth, so
// a run resumed from a checkpoint never re-records the shared prefix, never
// re-fingerprints the node it resumes at, and recording a step allocates
// nothing once the arenas are warm. Every run executes on the explorer's
// one live system and one engine, and a truncated checkpoint slot keeps its
// system and engine checkpoint for the next push. An in-process search
// keeps one explorer per worker across every subtree and wave the worker
// drains (explore empties the path and the checkpoint stack and keeps the
// rest); a distributed worker keeps one per slot across the consecutive
// leases of a job (SubtreeRunner).
// The frontier planner drives the same strategy, one probe run at a time.
type explorer struct {
	nprocs  int
	factory Factory
	opts    ExploreOpts

	i     int // subtree index (canonical order)
	floor int // root prefix length; backtracking never unwinds above it
	sh    *exploreShared

	// cache is the visited-state view of a pruned search, nil otherwise.
	cache *stateCache
	// ckpt turns on checkpointing: explore sets it for every subtree search,
	// and it takes effect when the live system restores (System.Restore).
	// The frontier planner's probes never resume, so they leave it off.
	ckpt bool

	// Persistent path state, indexed by absolute decision depth: offs[d]..
	// offs[d+1] frames depth d's enabled set in flat.
	flat  []int
	offs  []int
	picks []int
	fps   []uint64
	cps   []checkpoint

	// Per-run state.
	prefix   []int            // picks to replay, by absolute depth
	sys      System           // the live system, restored per run
	root     System           // the initial configuration, when sys restores
	eng      *sched.SeqEngine // the explorer's engine, restarted per run
	trunc    bool             // the run hit MaxDepth
	cut      bool             // the run reached an already-closed state
	diverged error            // replay divergence: a prefix pick was not enabled
	capErr   error            // the system lacks a hook the options need

	h maphash.Hash
	o *SubtreeOutcome // the outcome explore fills
}

func newExplorer(nprocs int, factory Factory, opts ExploreOpts, sh *exploreShared) *explorer {
	ex := &explorer{nprocs: nprocs, factory: factory, opts: opts, sh: sh, offs: []int{0}}
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
	// A resumed run's first decision is its checkpoint's node, which kept
	// its fingerprint and already passed the lookup (see stateful.go).
	if ex.cache != nil && step >= len(ex.fps) {
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
	}
	// Checkpoint only at branch points: backtracking always diverges at a
	// depth with an unexplored sibling, so checkpoints taken on forced
	// single-successor chains could never seed a resume — and every resume
	// then starts exactly at the divergence depth, replaying nothing.
	if ex.ckpt && ex.sys.Restore != nil && step >= ex.floor && len(enabled) > 1 &&
		(len(ex.cps) == 0 || ex.cps[len(ex.cps)-1].depth < step) {
		ex.pushCheckpoint(step)
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

// run executes one schedule of ex.prefix on the explorer's one engine,
// restarted per run: resumed from checkpoint from when one covers the
// prefix, from the initial configuration otherwise. The first run builds
// the live system, and the pristine root it restores from; later runs
// restore the live system in place (a system without Restore is rebuilt
// instead). A system that lacks a hook the options need is not run;
// ex.capErr reports it.
func (ex *explorer) run(from *checkpoint) (*sched.Result, error) {
	ex.trunc, ex.cut, ex.diverged = false, false, nil
	var cp *sched.SeqCheckpoint
	switch {
	case ex.eng == nil:
		ex.eng = sched.NewSeqEngine(ex.nprocs, ex)
		ex.sys = ex.factory(ex.eng)
		if ex.capErr = capabilities(&ex.sys, ex.opts); ex.capErr != nil {
			return nil, ex.capErr
		}
		if ex.sys.Restore != nil {
			ex.root = ex.factory(noopStepper{})
		}
	case from != nil:
		ex.sys.Restore(from.sys)
		cp = from.cp
	case ex.sys.Restore != nil:
		ex.sys.Restore(ex.root)
	default:
		ex.sys = ex.factory(ex.eng)
	}
	ex.eng.Restart(ex, cp)
	return ex.eng.RunMachines(ex.sys.Machines)
}

// pushCheckpoint pushes the configuration after step steps onto the
// checkpoint stack. A slot left above the top by an earlier truncation is
// refilled in place; a new slot builds its frozen system once.
func (ex *explorer) pushCheckpoint(step int) {
	ex.cps = slices.Grow(ex.cps, 1)[:len(ex.cps)+1]
	slot := &ex.cps[len(ex.cps)-1]
	if slot.cp == nil {
		slot.sys, slot.cp = ex.factory(noopStepper{}), new(sched.SeqCheckpoint)
	}
	slot.depth = step
	slot.sys.Restore(ex.sys)
	ex.eng.CheckpointInto(slot.cp)
}

// explore runs the DFS loop over subtree i of ex.sh and returns its
// outcome, or the error of a system lacking a hook the options need (a
// configuration error, not a run: the search returns it without a report).
// A pruned search prunes against global, the visited states frozen for the
// subtree's wave, plus the subtree's own closures. explore starts from an
// empty path and checkpoint stack, so one explorer can drain any number of
// subtrees in turn; its engine, systems and checkpoint slots carry over.
func (ex *explorer) explore(i int, global func(fp uint64) (int, bool)) (*SubtreeOutcome, error) {
	ex.i, ex.floor, ex.cache = i, len(ex.sh.frontier[i]), nil
	if ex.opts.Prune {
		ex.cache = &stateCache{global: global, local: StateTable{}}
	}
	ex.flat, ex.offs, ex.picks, ex.fps, ex.cps = ex.flat[:0], ex.offs[:1], ex.picks[:0], ex.fps[:0], ex.cps[:0]
	ex.o = &SubtreeOutcome{}
	ex.ckpt = true
	if err := ex.search(); err != nil {
		return nil, err
	}
	if ex.cache != nil {
		ex.o.Closures = ex.cache.closures()
	}
	return ex.o, nil
}

// search is the loop: run, account, check, backtrack, budget. Cut runs skip
// the check and count as pruned, completed nodes are closed into the cache,
// and the next run resumes from the deepest checkpoint at or above the
// divergence depth. The budget and violation cutoffs read the shared lower
// bounds of exploreShared, so the loop stops at or past the subtree's exact
// stop (see Waves).
func (ex *explorer) search() error {
	sh, o := ex.sh, ex.o
	if sh.maxRuns > 0 && sh.base(sh.runs, sh.runBase, ex.i) >= sh.maxRuns {
		sh.cutAt(ex.i)
		return nil // earlier subtrees alone exhaust the budget
	}
	ex.prefix = append(ex.prefix[:0], sh.frontier[ex.i]...)
	var from *checkpoint
	for {
		if int64(ex.i) > sh.stopAfter.Load() {
			return nil // an earlier subtree already ends the search
		}
		if ex.opts.Interrupted != nil && ex.opts.Interrupted() {
			o.Stopped = true
			sh.cutAt(ex.i)
			return nil
		}
		sh.runs[ex.i].Add(1)
		res, err := ex.run(from)
		if ex.capErr != nil {
			sh.cutAt(ex.i)
			return ex.capErr
		}
		o.Runs++
		if ex.trunc {
			o.Truncated++
		}
		if ex.cut {
			o.Pruned++
		}
		ex.opts.Obs.RunDone(ex.trunc, ex.cut, ex.opts.Symmetry)
		if err == nil {
			err = ex.diverged
		}
		if err != nil {
			o.err = fmt.Errorf("trace: run failed on schedule %v: %w", ex.picks, err)
			o.RunErr = o.err.Error()
			sh.cutAt(ex.i)
			return nil
		}
		if !ex.cut {
			if cerr := ex.sys.Check(res); cerr != nil {
				o.Violations = append(o.Violations, SubtreeViolation{
					Schedule: append([]int(nil), ex.picks...), Err: cerr.Error()})
				sh.viols[ex.i].Add(1)
				if sh.base(sh.viols, sh.violBase, ex.i)+len(o.Violations) >= sh.maxViol {
					o.ViolCut = true
					sh.cutAt(ex.i)
					return nil
				}
			}
		}
		d := ex.backtrack()
		if ex.cache != nil {
			ex.closeStates(d)
		}
		if d < 0 {
			o.Exhausted = true
			return nil
		}
		// The budget check sits after the backtrack, so a subtree that stops
		// on budget has already learned whether it was exhausted, which the
		// merge needs for the exact Exhausted flag.
		if sh.maxRuns > 0 && sh.base(sh.runs, sh.runBase, ex.i)+o.Runs >= sh.maxRuns {
			sh.cutAt(ex.i)
			return nil
		}
		for len(ex.cps) > 0 && ex.cps[len(ex.cps)-1].depth > d {
			ex.cps = ex.cps[:len(ex.cps)-1]
		}
		base := 0
		from = nil
		if len(ex.cps) > 0 {
			from = &ex.cps[len(ex.cps)-1]
			base = from.depth
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
// from it on will be re-recorded by the next run (with checkpointing, only the
// suffix past the checkpoint is). The fingerprint of the resume node itself
// is kept, so the run resumed there neither hashes nor looks it up again.
func (ex *explorer) truncTo(base int) {
	ex.picks = ex.picks[:base]
	ex.flat = ex.flat[:ex.offs[base]]
	ex.offs = ex.offs[:base+1]
	if len(ex.fps) > base+1 {
		ex.fps = ex.fps[:base+1]
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
