// Package harness is the one front door to the paper's experiment shapes.
// Every experiment in the repository — and every cmd — follows one pattern:
// pick a protocol Π from the registry (internal/protocol), pick a mode, run
// it. The harness owns the wiring those modes share (seed handling, factory
// construction, report types) behind one Options struct and four verbs:
//
//   - Run    — the revisionist simulation (§4): f simulators wait-free
//     simulate Π through an augmented snapshot (core.Run), with task,
//     §3-specification and Lemma 26/27 reconstruction checks.
//   - Check  — bounded exhaustive schedule exploration of Π in the simulated
//     system (trace.Explore), reporting replayable violating schedules.
//   - Fuzz   — adversarial schedule search over Π (trace.Fuzz), hill-climbing
//     a metric such as total scheduler steps.
//   - Stress — seeded random Scan/Block-Update workloads on the augmented
//     snapshot itself, each checked offline against the §3 specification.
//
// Adding a protocol to the registry makes it available to all four verbs —
// and through them to every cmd, test and benchmark — with no further code.
package harness

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"sync/atomic"

	"revisionist/internal/augsnap"
	"revisionist/internal/core"
	"revisionist/internal/proto"
	"revisionist/internal/protocol"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
	"revisionist/internal/spec"
	"revisionist/internal/trace"
)

// Options parameterizes all four verbs. Protocol and Params select Π (Run,
// Check, Fuzz); zero-valued fields fall back to the documented defaults.
type Options struct {
	// Protocol is the registry name of Π, e.g. "kset".
	Protocol string
	// Params are Π's parameters; unset fields take the schema defaults.
	Params protocol.Params
	// Engine is a compatibility field from when there was a choice of
	// engines: "" and sched.EngineName name the one engine, and every verb
	// rejects anything else.
	Engine string
	// Workers sets the search worker-pool size for Check, Fuzz and Stress
	// (0 = GOMAXPROCS, 1 = sequential). Reports are identical for any value:
	// Check merges subtree results back into canonical schedule order, Fuzz's
	// population structure is worker-independent, and Stress merges seed
	// outcomes in seed order.
	Workers int
	// Prune enables state-fingerprint pruning of converging interleavings
	// for Check. The violation set and Exhausted flag match the unpruned
	// search — the task validators are functions of the reachable
	// configuration — while the run count shrinks by the protocol's
	// symmetry. Subtree checkpointing, which resumes each run from the
	// deepest common prefix, is on with or without it. The report is identical for any Workers value.
	// Other verbs ignore it.
	Prune bool
	// Symmetry enables symmetry-reduced pruning for Check (implies Prune):
	// the visited-state cache stores canonical fingerprints that collapse
	// process-permutation orbits of the protocol's declared interchangeability
	// classes (protocol.Protocol.Symmetry), multiplying the pruning ratio by
	// up to |class|!. The violation set matches the unreduced search modulo
	// renaming interchangeable processes; Exhausted matches exactly. A no-op
	// (identical to plain Prune) on protocols that declare no symmetry.
	// Other verbs ignore it.
	Symmetry bool
	// Seed seeds the schedule (Run), the search (Fuzz), or the first
	// workload (Stress).
	Seed int64

	// Serve and Connect select the distributed Check mode (see
	// internal/dist). Serve is a TCP listen address: ServeCheck coordinates
	// the exploration, leasing schedule subtrees to connecting workers and
	// merging their results into the exact single-process report. Connect is
	// a coordinator address: ConnectCheck joins as a worker, running leased
	// subtrees on Workers local slots. Both empty = in-process search.
	Serve   string
	Connect string

	// Priority is the daemon's fair-share weight for a submitted job: 1
	// (lowest) through 9 (highest), 0 = the default (5). Only the jobd
	// submission path reads it; local verbs ignore it.
	Priority int

	// Interrupted, when non-nil, is polled between schedules by Check-style
	// verbs; returning true stops the search, which then reports the partial
	// results gathered so far alongside trace.ErrInterrupted (the cmds wire
	// SIGINT to this).
	Interrupted func() bool

	// Obs, when non-nil, receives the search core's live counters (runs,
	// pruning, waves) during Check-style verbs — the -progress ticker reads
	// it. A pure side channel: reports are byte-identical with or without
	// it, and like Interrupted it stays local (never crosses the wire).
	Obs *trace.SearchObs

	// Run: F simulators (default 3), D of them direct, and whether to
	// reconstruct and replay the simulated execution (Lemmas 26-27).
	F        int
	D        int
	Validate bool

	// Check: exploration bounds (defaults 20 / 200000 / 1).
	MaxDepth      int
	MaxRuns       int
	MaxViolations int

	// Fuzz: search bounds (defaults 100 / 64 / 1<<20).
	Iterations  int
	ScheduleLen int
	MaxSteps    int

	// Stress: M components (default 3), Ops operations per process (default
	// 8), Seeds seeded schedules (default 200). F doubles as the process
	// count (default 4).
	M     int
	Ops   int
	Seeds int
}

// resolve looks the protocol up and resolves its parameters.
func (o Options) resolve() (*protocol.Protocol, protocol.Params, error) {
	if err := sched.CheckEngine(o.Engine); err != nil {
		return nil, protocol.Params{}, &UsageError{Err: err}
	}
	pr, err := protocol.Lookup(o.Protocol)
	if err != nil {
		return nil, protocol.Params{}, &UsageError{Err: err}
	}
	p, err := pr.Resolve(o.Params)
	if err != nil {
		return nil, protocol.Params{}, &UsageError{Err: err}
	}
	return pr, p, nil
}

func defaultInt(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// RunReport is the outcome of one revisionist simulation run.
type RunReport struct {
	// Protocol and Params identify the resolved Π.
	Protocol *protocol.Protocol
	Params   protocol.Params
	// Config is the simulation architecture (Figure 1) the run used.
	Config core.Config
	// Task is Π's task; Inputs are the simulator inputs.
	Task   spec.Task
	Inputs []spec.Value
	// Result is the raw simulation result.
	Result *core.Result
	// TaskErr reports task validation of the terminated simulators' outputs
	// (nil = valid). SpecErr reports the §3 check of the augmented snapshot
	// log. ReconErr reports the Lemma 26/27 reconstruction; it is only
	// meaningful when Options.Validate was set (Validated records that).
	TaskErr   error
	SpecErr   error
	ReconErr  error
	Validated bool
}

// Plan resolves the protocol and returns the simulation configuration Run
// would use, without running it (simulate -layout).
func Plan(opts Options) (core.Config, error) {
	pr, p, err := opts.resolve()
	if err != nil {
		return core.Config{}, err
	}
	return plan(opts, pr, p)
}

// plan builds the simulation config from an already-resolved protocol; the
// one instantiation here is how the protocol reports its component count m.
func plan(opts Options, pr *protocol.Protocol, p protocol.Params) (core.Config, error) {
	inst, err := pr.Instantiate(p)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		N: p.N,
		M: inst.M,
		F: defaultInt(opts.F, 3),
		D: opts.D,
	}, nil
}

// Run executes the revisionist simulation of the selected protocol under a
// seeded random schedule. On sched.ErrMaxSteps the report is still returned
// alongside the error (starved runs are data, not failures, for colorless
// tasks).
func Run(opts Options) (*RunReport, error) {
	pr, p, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	cfg, err := plan(opts, pr, p)
	if err != nil {
		return nil, err
	}
	inputs := pr.DefaultInputs(p, cfg.F)
	mk := func(in []proto.Value) ([]proto.Process, error) {
		inst, err := pr.InstantiateWith(p, in)
		if err != nil {
			return nil, err
		}
		return inst.Procs, nil
	}
	res, runErr := core.Run(cfg, inputs, mk, sched.NewRandom(opts.Seed))
	if res == nil {
		return nil, runErr
	}
	rep := &RunReport{
		Protocol: pr,
		Params:   p,
		Config:   cfg,
		Task:     pr.Task(p),
		Inputs:   inputs,
		Result:   res,
	}
	var done []spec.Value
	for i, d := range res.Done {
		if d {
			done = append(done, res.Outputs[i])
		}
	}
	rep.TaskErr = rep.Task.Validate(inputs, done)
	rep.SpecErr = trace.Check(res.Log, cfg.M)
	if opts.Validate && runErr == nil {
		rep.Validated = true
		rep.ReconErr = core.ValidateExecution(cfg, inputs, mk, res)
	}
	return rep, runErr
}

// factory builds the trace.Factory both Check and Fuzz run over: a fresh
// instance of Π per call, on a fresh multi-writer snapshot, checked against
// Π's task. p must be resolved. The per-job values — inputs, task and
// symmetry group — are built once, outside the per-system closure, and
// shared read-only by every system the factory builds: Build only reads its
// inputs, the task only reads them, and the canonicalizer is read-only.
func factory(pr *protocol.Protocol, p protocol.Params) trace.Factory {
	j := &protoJob{inputs: pr.DefaultInputs(p, p.N), task: pr.Task(p), cz: canonicalizer(pr, p)}
	return func(gate sched.Stepper) trace.System {
		procs, m, err := pr.Build(p, j.inputs)
		if err != nil {
			// Parameters were validated in resolve; a failure here is a
			// descriptor bug, surfaced by the engine as a run error.
			panic(fmt.Errorf("protocol %s: %w", pr.Name, err))
		}
		res := proto.NewRunResult(len(procs))
		snap := shmem.NewMWSnapshot("M", gate, m, nil)
		return protoSystem(j, snap, res, proto.Machines(procs, snap, res))
	}
}

// protoJob is what every system of one protocol job shares, read-only: the
// process inputs, the task the outputs are checked against, and the symmetry
// canonicalizer.
type protoJob struct {
	inputs []spec.Value
	task   spec.Task
	cz     *sched.Canonicalizer
}

// canonicalizer enumerates the symmetry group of Π at p from its registry
// declaration, binding input-role renaming to the canonical default inputs
// (the inputs factory's instances run with). A structural error is a
// descriptor bug: registration-time data promised classes that do not fit
// the instance.
func canonicalizer(pr *protocol.Protocol, p protocol.Params) *sched.Canonicalizer {
	sym := pr.Symmetry(p)
	sp := sched.SymmetrySpec{N: p.N, Classes: sym.Classes, Owned: sym.Owned}
	if sym.RenameInputs {
		inputs := pr.DefaultInputs(p, p.N)
		roles := make(map[any]int)
		for _, cl := range sym.Classes {
			for _, pid := range cl {
				roles[inputs[pid]] = pid
			}
		}
		sp.Roles = roles
	}
	cz, err := sched.NewCanonicalizer(sp)
	if err != nil {
		panic(fmt.Sprintf("harness: protocol %s declares a malformed symmetry at %+v: %v", pr.Name, p, err))
	}
	return cz
}

// protoSystem assembles the System for a protocol instance, wiring the
// stateful-exploration hooks around one configuration encoder,
// appendConfig, and one fingerprint buffer the system reuses. The
// fingerprint is the encoding under the identity, written to the caller's
// hash in one Write (enabling ExploreOpts.Prune — sound here because the
// task check is a function of the recorded outputs, i.e. of the
// configuration); the canonical fingerprint minimizes the hash of the
// encoding over the protocol's symmetry group (enabling
// ExploreOpts.Symmetry; with no declared symmetry the group is the identity
// and the hook is an exact no-op). Restore copies another instance's
// snapshot, result and machines into this one in place. Check validates
// from a buffer the system owns, so a checked run allocates no output
// slice.
func protoSystem(j *protoJob, snap *shmem.MWSnapshot, res *proto.RunResult, machines []sched.Machine) trace.System {
	var outs []spec.Value
	var fp sched.FP
	appendCfg := func(fp *sched.FP, c *sched.Canon) { appendConfig(fp, snap, machines, c) }
	return trace.System{
		Machines: machines,
		Check: func(*sched.Result) error {
			outs = res.AppendDoneOutputs(outs[:0])
			return j.task.Validate(j.inputs, outs)
		},
		Fingerprint: func(h *maphash.Hash) {
			fp.Reset()
			appendCfg(&fp, nil)
			h.Write(fp.Bytes())
		},
		CanonicalFingerprint: func(*maphash.Hash) uint64 { return j.cz.Canonical(&fp, appendCfg) },
		Restore:              func(from trace.System) { proto.RestoreMachines(machines, from.Machines) },
	}
}

// appendConfig encodes a protocol system's configuration under c: the
// snapshot's state, then every machine's, in c's slot order.
func appendConfig(fp *sched.FP, snap *shmem.MWSnapshot, machines []sched.Machine, c *sched.Canon) {
	snap.AppendFingerprint(fp, c)
	for s := range machines {
		machines[c.SlotSrc(s)].(sched.Fingerprinter).AppendFingerprint(fp, c)
	}
}

// CheckReport is the outcome of an exhaustive exploration.
type CheckReport struct {
	Protocol *protocol.Protocol
	Params   protocol.Params
	// Explore is the raw exploration report; violations carry schedules
	// replayable with sched.Replay.
	Explore *trace.ExploreReport
}

// exploreOpts resolves Options into the exploration bounds Check — local or
// distributed — runs under.
func exploreOpts(opts Options) trace.ExploreOpts {
	// Symmetry implies Prune: the reduction is a property of the
	// visited-state cache, so there is nothing for it to reduce without one.
	prune := opts.Prune || opts.Symmetry
	return trace.ExploreOpts{
		MaxDepth:      defaultInt(opts.MaxDepth, 20),
		MaxRuns:       defaultInt(opts.MaxRuns, 200_000),
		MaxViolations: defaultInt(opts.MaxViolations, 1),
		Engine:        opts.Engine,
		Workers:       opts.Workers,
		Prune:         prune,
		Symmetry:      opts.Symmetry,
		Interrupted:   opts.Interrupted,
		Obs:           opts.Obs,
	}
}

// Check exhaustively explores the schedules of the selected protocol up to
// Options.MaxDepth, validating the task on every schedule. On interruption
// (Options.Interrupted) the partial report is returned alongside
// trace.ErrInterrupted.
func Check(opts Options) (*CheckReport, error) {
	pr, p, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	rep, err := trace.Explore(p.N, factory(pr, p), exploreOpts(opts))
	if err != nil && !(errors.Is(err, trace.ErrInterrupted) && rep != nil) {
		return nil, err
	}
	return &CheckReport{Protocol: pr, Params: p, Explore: rep}, err
}

// FuzzReport is the outcome of an adversarial schedule search.
type FuzzReport struct {
	Protocol *protocol.Protocol
	Params   protocol.Params
	// Fuzz is the raw search report: the best schedule prefix found and its
	// score under the metric.
	Fuzz *trace.FuzzReport
}

// Steps is the default Fuzz metric: total scheduler steps, i.e. livelock
// pressure on obstruction-free protocols.
func Steps(res *sched.Result) float64 { return float64(res.Steps) }

// Fuzz hill-climbs over schedule prefixes of the selected protocol to
// maximize metric (nil = Steps).
func Fuzz(opts Options, metric func(res *sched.Result) float64) (*FuzzReport, error) {
	pr, p, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	if metric == nil {
		metric = Steps
	}
	rep, err := trace.Fuzz(p.N, factory(pr, p), metric, trace.FuzzOpts{
		Iterations:  opts.Iterations,
		Seed:        opts.Seed,
		ScheduleLen: opts.ScheduleLen,
		MaxSteps:    opts.MaxSteps,
		Workers:     opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &FuzzReport{Protocol: pr, Params: p, Fuzz: rep}, nil
}

// StressReport is the outcome of an augmented snapshot stress run.
type StressReport struct {
	// Schedules is the number of seeded workloads executed.
	Schedules int
	// BlockUpdates, Yields and Scans aggregate the operation log across all
	// workloads.
	BlockUpdates int
	Yields       int
	Scans        int
	// Violation is the first §3 specification violation found (nil = all
	// checks passed); FailedSeed is the seed that produced it.
	Violation  error
	FailedSeed int64
}

// seedOutcome is one seeded workload's contribution to a StressReport, kept
// per seed so parallel outcomes can merge back in seed order.
type seedOutcome struct {
	scans, bus, yields int
	violation          error
	err                error
}

// runStressSeed executes and checks one seeded workload.
func runStressSeed(opts Options, f, m, ops int, seed int64) seedOutcome {
	a, err := StressWorkload(opts.Engine, f, m, ops, seed)
	if err != nil {
		return seedOutcome{err: fmt.Errorf("harness: stress seed %d: %w", seed, err)}
	}
	log := a.Log()
	if cerr := trace.Check(log, m); cerr != nil {
		return seedOutcome{violation: cerr}
	}
	o := seedOutcome{scans: len(log.Scans), bus: len(log.BUs)}
	for _, bu := range log.BUs {
		if bu.Yielded {
			o.yields++
		}
	}
	return o
}

// Stress runs Options.Seeds seeded random Scan/Block-Update workloads of
// Options.F processes on an Options.M-component augmented snapshot, checking
// each operation log offline against the §3 specification. It stops at the
// first violation in seed order (reported in the StressReport, not as an
// error). With Options.Workers != 1 the seeds fan out across a worker pool;
// outcomes merge back in seed order, so the report is identical for any
// worker count.
func Stress(opts Options) (*StressReport, error) {
	f := defaultInt(opts.F, 4)
	m := defaultInt(opts.M, 3)
	ops := defaultInt(opts.Ops, 8)
	seeds := defaultInt(opts.Seeds, 200)
	workers := min(trace.ResolveWorkers(opts.Workers), seeds)
	outcomes := make([]seedOutcome, seeds)
	if workers <= 1 {
		for i := 0; i < seeds; i++ {
			outcomes[i] = runStressSeed(opts, f, m, ops, opts.Seed+int64(i))
			if outcomes[i].err != nil || outcomes[i].violation != nil {
				break // merging below never looks past the first failure
			}
		}
	} else {
		var cut atomic.Int64
		cut.Store(int64(seeds))
		trace.RunOnPool(workers, seeds, func(i int) {
			if int64(i) > cut.Load() {
				return // past the first known failure; never merged
			}
			o := runStressSeed(opts, f, m, ops, opts.Seed+int64(i))
			outcomes[i] = o
			if o.err != nil || o.violation != nil {
				for {
					c := cut.Load()
					if c <= int64(i) || cut.CompareAndSwap(c, int64(i)) {
						break
					}
				}
			}
		})
	}
	rep := &StressReport{}
	for i := 0; i < seeds; i++ {
		o := outcomes[i]
		if o.err != nil {
			return nil, o.err
		}
		rep.Schedules++
		if o.violation != nil {
			rep.Violation = o.violation
			rep.FailedSeed = opts.Seed + int64(i)
			return rep, nil
		}
		rep.Scans += o.scans
		rep.BlockUpdates += o.bus
		rep.Yields += o.yields
	}
	return rep, nil
}

// StressWorkload executes one seeded random mixed Scan/Block-Update workload
// (ops operations per each of f processes, ~1/4 Scans) on a fresh
// m-component augmented snapshot and returns it for log inspection. It is
// the shared workload generator behind Stress and the E3/E4 experiments.
// engine is the compatibility engine name of Options.Engine.
func StressWorkload(engine string, f, m, ops int, seed int64) (*augsnap.AugSnapshot, error) {
	if err := sched.CheckEngine(engine); err != nil {
		return nil, err
	}
	eng := sched.NewSeqEngine(f, sched.NewRandom(seed), sched.WithMaxSteps(1<<22))
	a := augsnap.New(eng, f, m)
	rngs := make([]*rand.Rand, f)
	for pid := range rngs {
		rngs[pid] = rand.New(rand.NewSource(seed*1000 + int64(pid)))
	}
	machines := sched.Processes(f, func(pid, i int) sched.Cursor {
		rng := rngs[pid]
		switch {
		case i == ops:
			return nil
		case rng.Intn(4) == 0:
			return a.StartScan(pid)
		}
		r := 1 + rng.Intn(m)
		comps := rng.Perm(m)[:r]
		vals := make([]augsnap.Value, r)
		for g := range vals {
			vals[g] = fmt.Sprintf("p%d-%d-%d", pid, i, g)
		}
		return a.StartBlockUpdate(pid, comps, vals)
	})
	if _, err := eng.RunMachines(machines); err != nil {
		return nil, err
	}
	return a, nil
}

// IsStarved reports whether err is only the scheduler's step budget running
// out — a liveness observation, not a failure, for subset-closed tasks.
func IsStarved(err error) bool { return errors.Is(err, sched.ErrMaxSteps) }
