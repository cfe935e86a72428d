package main

import (
	"fmt"
	"os"
	"time"

	"revisionist/internal/dist"
	"revisionist/internal/dist/wire"
	"revisionist/internal/harness"
	"revisionist/internal/obs"
	"revisionist/internal/trace"
)

// local runs a pool through the in-process search, one job at a time:
// harness.CheckJob, harness.Resolve, then trace.Explore with 2 workers. No
// daemon, wire or journal is involved, so the same pool through checkd
// minus this prices the service.
type local struct{ pool []*checkEntry }

func (w *local) prepare() error { return prepare(w.pool) }

func (w *local) weights() []int { return weights(w.pool, func(e *checkEntry) int { return e.weight }) }

func (w *local) run(_ *bench, seq *sequence, tr *tracer, dur time.Duration) (*phase, []metric, error) {
	resolve := dist.Resolver(harness.Resolve)
	var sobs *trace.SearchObs
	if tr != nil {
		// The traced loop also feeds a registry, to hold its run counter
		// against the reports.
		resolve, sobs = tr.resolver(resolve), trace.NewSearchObs(obs.NewRegistry())
	}
	ph := newPhase(seq)
	var runs, pruned, distinct int64
	for n, more := 1, true; more; n++ {
		i, deckEnd := seq.next()
		more = !deckEnd || !ph.over(dur)
		e := w.pool[i]
		ph.attempted++
		t0 := time.Now()
		id := fmt.Sprintf("local-%06d", n)
		if tr != nil {
			tr.bind(tr.open("job", -1, ""), id)
		}
		job, err := harness.CheckJob(e.opts)
		if err != nil {
			return nil, nil, err
		}
		job.ID, job.Opts.Workers, job.Opts.Obs = id, 2, sobs
		nprocs, factory, err := resolve(job)
		if err != nil {
			return nil, nil, err
		}
		before := sobs.Runs()
		rep, err := trace.Explore(nprocs, factory, job.Opts)
		if err != nil {
			ph.fail()
			fmt.Fprintf(os.Stderr, "job %s (%s) failed: %v\n", id, e.label, err)
			if tr != nil {
				tr.finish(id)
			}
			continue
		}
		if tr != nil {
			explored := sobs.Runs() - before
			if err := e.runsCheck(explored, int64(rep.Runs)); err != nil {
				return nil, nil, err
			}
		}
		var rp int32
		if tr != nil {
			rp = tr.open("harness.render", tr.job(id).span, id)
		}
		var witness *wire.Witness
		if len(rep.Violations) > 0 {
			witness = wire.WitnessOf(job.Protocol, job.Params, string(job.Opts.Engine), job.Opts.MaxDepth, rep.Violations)
		}
		verr := e.verify(job.Params, rep, witness)
		if tr != nil {
			tr.close(rp)
			tr.finish(id)
		}
		if verr != nil {
			ph.fail()
			ph.mismatch = verr
			continue
		}
		ph.finish(t0, i, int64(rep.Runs))
		runs += int64(rep.Runs)
		pruned += int64(rep.Pruned)
		distinct += int64(rep.Distinct)
	}
	if tr == nil {
		return ph, nil, nil
	}
	st := tr.stats()
	out := []metric{
		{"harness.resolve_us", "us", st.perCall("harness.resolve", 1e3)},
		{"harness.resolves_per_job", "count", float64(st.calls["harness.resolve"]) / float64(st.jobs)},
		{"harness.render_us", "us", st.perCall("harness.render", 1e3)},
	}
	return ph, append(out, searchLayers(st, runs, pruned, distinct)...), nil
}
