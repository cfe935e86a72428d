package main

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"revisionist/internal/augsnap"
	"revisionist/internal/core"
	"revisionist/internal/harness"
	"revisionist/internal/proto"
	"revisionist/internal/protocol"
	"revisionist/internal/sched"
	"revisionist/internal/trace"
)

// simEntry is one job of the sim workload: a batch of revisionist
// simulations with the Lemma 26/27 reconstruction (harness.Run with
// Validate) over consecutive schedule seeds, or a batch of seeded
// augmented-snapshot workloads checked against the §3 specification
// (harness.Stress). Both batches run on 2 workers.
type simEntry struct {
	label  string
	opts   harness.Options // Seed is the batch's first schedule seed
	seeds  int
	stress bool
	want   string // digest of the reference outcome
}

// sim runs the paper's own objects: no check job reaches core, augsnap or
// the §3 specification check.
type sim struct{ pool []*simEntry }

// simPool sizes each batch to a few tens of milliseconds, so that the four
// kinds take similar time and their latencies overlap.
func simPool() []*simEntry {
	run := func(label, proto string, p protocol.Params, f, d, seeds int) *simEntry {
		return &simEntry{label: label, seeds: seeds,
			opts: harness.Options{Protocol: proto, Params: p, F: f, D: d, Validate: true, Seed: 1}}
	}
	return []*simEntry{
		run("kset-n9k7-f3", "kset", protocol.Params{N: 9, K: 7}, 3, 0, 400),
		run("firstvalue-n8-f8", "firstvalue", protocol.Params{N: 8}, 8, 0, 500),
		run("lane-kset-f3d2", "lane-kset", protocol.Params{}, 3, 2, 80),
		{label: "stress-f4m3", stress: true, opts: harness.Options{F: 4, M: 3, Ops: 8, Seeds: 100, Workers: 2, Seed: 1}},
	}
}

func (w *sim) prepare() error {
	w.pool = simPool()
	for _, e := range w.pool {
		d, runs, err := e.run(nil, -1, nil)
		if err != nil {
			return fmt.Errorf("reference %s: %w", e.label, err)
		}
		if strings.Contains(d, "FAIL") || runs == 0 {
			return fmt.Errorf("reference %s fails: %s", e.label, d)
		}
		e.want = d
	}
	return nil
}

func (w *sim) weights() []int { return weights(w.pool, func(*simEntry) int { return 1 }) }

// run executes one job and returns the digest of its outcome and the
// schedules it ran. Untraced (tr nil) it goes through the harness front
// door; traced, through the public functions the front door is built from.
func (e *simEntry) run(tr *tracer, root int32, c *simCounts) (string, int64, error) {
	if e.stress {
		if tr != nil {
			return stressTraced(e.opts, tr, root)
		}
		rep, err := harness.Stress(e.opts)
		if err != nil {
			return "", 0, err
		}
		return stressDigest(rep), int64(rep.Schedules), nil
	}
	out := make([]string, e.seeds)
	errs := make([]error, e.seeds)
	trace.RunOnPool(2, e.seeds, func(i int) {
		o := e.opts
		o.Seed += int64(i)
		if tr != nil {
			out[i], errs[i] = simulateTraced(o, tr, root, c)
			return
		}
		rep, err := harness.Run(o)
		if rep == nil {
			errs[i] = err
			return
		}
		out[i] = runDigest(rep, err)
	})
	if err := errors.Join(errs...); err != nil {
		return "", 0, err
	}
	return strings.Join(out, "\n"), int64(e.seeds), nil
}

func okOrFail(err error) string {
	if err != nil {
		return "FAIL: " + err.Error()
	}
	return "ok"
}

func runDigest(rep *harness.RunReport, err error) string {
	r := rep.Result
	return fmt.Sprintf("run %s: task %s, spec %s, reconstruction %s (validated %v); steps %d, outputs %v, done %v, by %v, bus %v, scans %v, revisions %v",
		okOrFail(err), okOrFail(rep.TaskErr), okOrFail(rep.SpecErr), okOrFail(rep.ReconErr), rep.Validated,
		r.Steps, r.Outputs, r.Done, r.OutputBy, r.BlockUpdates, r.Scans, r.Revisions)
}

func stressDigest(rep *harness.StressReport) string {
	return fmt.Sprintf("stress: %d schedules, %d block updates, %d yields, %d scans, spec %s (seed %d)",
		rep.Schedules, rep.BlockUpdates, rep.Yields, rep.Scans, okOrFail(rep.Violation), rep.FailedSeed)
}

// simCounts accumulates the traced loop's simulations and their steps.
type simCounts struct{ coreRuns, hSteps atomic.Int64 }

func (w *sim) run(b *bench, seq *sequence, tr *tracer, dur time.Duration) (*phase, []metric, error) {
	ph := newPhase(seq)
	var c simCounts
	for n, more := 1, true; more; n++ {
		i, deckEnd := seq.next()
		more = !deckEnd || !ph.over(dur)
		e := w.pool[i]
		ph.attempted++
		t0 := time.Now()
		var (
			d    string
			runs int64
			err  error
		)
		if tr == nil {
			d, runs, err = e.run(nil, -1, nil)
		} else {
			id := fmt.Sprintf("sim-%06d", n)
			root := tr.open("job", -1, "")
			tr.bind(root, id)
			d, runs, err = e.run(tr, root, &c)
			tr.finish(id)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", e.label, err)
		}
		if d != e.want {
			ph.fail()
			ph.mismatch = fmt.Errorf("%s: outcome differs from the reference:\n--- want ---\n%s\n--- got ---\n%s", e.label, e.want, d)
			continue
		}
		ph.finish(t0, i, runs)
	}
	if tr == nil {
		return ph, nil, nil
	}
	st := tr.stats()
	jobs := float64(st.jobs)
	out := []metric{
		{"harness.plan_us", "us", st.perCall("harness.plan", 1e3)},
		{"core.simulate_us", "us", st.perCall("core.simulate", 1e3)},
		{"core.validate_us", "us", st.perCall("core.validate", 1e3)},
		{"core.h_steps_per_run", "count", float64(c.hSteps.Load()) / float64(c.coreRuns.Load())},
		{"augsnap.stress_workload_us", "us", st.perCall("augsnap.stress_workload", 1e3)},
		{"trace.spec_check_us", "us", st.perCall("trace.spec_check", 1e3)},
		{"trace.spec_checks_per_job", "count", float64(st.calls["trace.spec_check"]) / jobs},
	}
	return ph, append(out, selfTimes(st)...), nil
}

// timed runs fn as a span named name under the job's root span.
func timed(tr *tracer, root int32, name string, fn func()) {
	t0 := tr.now()
	fn()
	tr.add(name, t0, tr.now(), root, "")
}

// simulateTraced is harness.Run from its parts, timing each layer's call:
// harness.Plan, core.Run, trace.Check and core.ValidateExecution. Its digest
// must equal the front door's, which the gate checks.
func simulateTraced(o harness.Options, tr *tracer, root int32, c *simCounts) (string, error) {
	var (
		cfg core.Config
		err error
	)
	timed(tr, root, "harness.plan", func() { cfg, err = harness.Plan(o) })
	if err != nil {
		return "", err
	}
	pr, err := protocol.Lookup(o.Protocol)
	if err != nil {
		return "", err
	}
	p, err := pr.Resolve(o.Params)
	if err != nil {
		return "", err
	}
	inputs := pr.DefaultInputs(p, cfg.F)
	mk := func(in []proto.Value) ([]proto.Process, error) {
		inst, err := pr.InstantiateWith(p, in)
		if err != nil {
			return nil, err
		}
		return inst.Procs, nil
	}
	var res *core.Result
	var runErr error
	timed(tr, root, "core.simulate", func() { res, runErr = core.Run(cfg, inputs, mk, sched.NewRandom(o.Seed)) })
	if res == nil {
		return "", runErr
	}
	c.coreRuns.Add(1)
	c.hSteps.Add(int64(res.Steps))
	rep := &harness.RunReport{Protocol: pr, Params: p, Config: cfg, Task: pr.Task(p), Inputs: inputs, Result: res}
	var done []proto.Value
	for i, d := range res.Done {
		if d {
			done = append(done, res.Outputs[i])
		}
	}
	rep.TaskErr = rep.Task.Validate(inputs, done)
	timed(tr, root, "trace.spec_check", func() { rep.SpecErr = trace.Check(res.Log, cfg.M) })
	if o.Validate && runErr == nil {
		rep.Validated = true
		timed(tr, root, "core.validate", func() { rep.ReconErr = core.ValidateExecution(cfg, inputs, mk, res) })
	}
	return runDigest(rep, runErr), nil
}

// stressTraced is harness.Stress from its parts: every seed's
// harness.StressWorkload and trace.Check on o.Workers workers, merged in
// seed order up to the first violation.
func stressTraced(o harness.Options, tr *tracer, root int32) (string, int64, error) {
	type outcome struct {
		bus, yields, scans int
		violation, err     error
	}
	out := make([]outcome, o.Seeds)
	trace.RunOnPool(o.Workers, o.Seeds, func(i int) {
		r := &out[i]
		var a *augsnap.AugSnapshot
		timed(tr, root, "augsnap.stress_workload", func() { a, r.err = harness.StressWorkload(o.Engine, o.F, o.M, o.Ops, o.Seed+int64(i)) })
		if r.err != nil {
			return
		}
		log := a.Log()
		timed(tr, root, "trace.spec_check", func() { r.violation = trace.Check(log, o.M) })
		r.scans, r.bus = len(log.Scans), len(log.BUs)
		for _, bu := range log.BUs {
			if bu.Yielded {
				r.yields++
			}
		}
	})
	rep := &harness.StressReport{}
	for i, r := range out {
		if r.err != nil {
			return "", 0, r.err
		}
		rep.Schedules++
		if r.violation != nil {
			rep.Violation, rep.FailedSeed = r.violation, o.Seed+int64(i)
			break
		}
		rep.Scans += r.scans
		rep.BlockUpdates += r.bus
		rep.Yields += r.yields
	}
	return stressDigest(rep), int64(rep.Schedules), nil
}
