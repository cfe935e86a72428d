package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"revisionist/internal/harness"
	"revisionist/internal/jobd"
)

// pollEvery is the client's pause between status rounds that saw no job
// finish.
const pollEvery = time.Millisecond

// jobTimeout fails a job that has not finished this long after its submit.
const jobTimeout = 60 * time.Second

// svc drives check jobs through checkd from one client connection, one at
// a time (a closed loop).
type svc struct{ pool []*checkEntry }

func (w *svc) prepare() error { return prepare(w.pool) }

func (w *svc) weights() []int { return weights(w.pool, func(e *checkEntry) int { return e.weight }) }

// pending is one submitted job the client is waiting for.
type pending struct {
	id      string
	kind    int // pool entry index
	e       *checkEntry
	t0      time.Time
	acked   time.Time
	started bool // a status poll has seen it leave the queue
	root    int32
}

// svcCounts accumulates the client's account of a loop; the timings and
// byte counts feed the traced loop's per-layer metrics.
type svcCounts struct {
	submitNs, statusNs, fetchNs, waitNs int64
	statuses, fetchBytes                int64
	runs, pruned, distinct              int64
	doneState                           int
	// explored is the registry's run counter, read after every job.
	explored int64
}

func (w *svc) run(b *bench, seq *sequence, tr *tracer, dur time.Duration) (*phase, []metric, error) {
	s, err := up(b.dir, tr)
	if err != nil {
		return nil, nil, err
	}
	defer s.down()
	ph := newPhase(seq)
	var c svcCounts
	var out []*pending
	for submitting := true; submitting || len(out) > 0; {
		for submitting && len(out) == 0 {
			i, deckEnd := seq.next()
			if deckEnd && ph.over(dur) {
				submitting = false
			}
			ph.attempted++
			p, err := w.submit(s, tr, &c, i)
			if err != nil {
				return nil, nil, err
			}
			if p == nil {
				ph.fail()
				continue
			}
			out = append(out, p)
		}
		progressed := false
		for k := 0; k < len(out); {
			finished, err := w.poll(s, tr, &c, ph, out[k])
			if err != nil {
				return nil, nil, err
			}
			if finished {
				out = append(out[:k], out[k+1:]...)
				progressed = true
				continue
			}
			k++
		}
		if !progressed && len(out) > 0 {
			time.Sleep(pollEvery)
		}
	}

	if err := w.crossCheck(s, &c); err != nil {
		return nil, nil, err
	}
	if tr == nil {
		return ph, nil, nil
	}
	layers, err := w.layers(s, tr, &c)
	return ph, layers, err
}

// submit sends one job; nil means the daemon rejected it.
func (w *svc) submit(s *stack, tr *tracer, c *svcCounts, kind int) (*pending, error) {
	e := w.pool[kind]
	p := &pending{kind: kind, e: e, t0: time.Now(), root: -1}
	var sub int32
	if tr != nil {
		p.root = tr.open("job", -1, "")
		sub = tr.open("jobd.submit", p.root, "")
		tr.submit.Store(sub + 1)
	}
	job, err := harness.CheckJob(e.opts)
	if err != nil {
		return nil, err
	}
	ack, err := s.cl.Submit(job)
	p.acked = time.Now()
	c.submitNs += int64(p.acked.Sub(p.t0))
	if tr != nil {
		tr.submit.Store(0)
		tr.close(sub)
	}
	if err != nil {
		return nil, fmt.Errorf("submit %s: %w", e.label, err)
	}
	if ack.Err != "" {
		fmt.Fprintf(os.Stderr, "job %s rejected: %s\n", e.label, ack.Err)
		return nil, nil
	}
	p.id = ack.ID
	if tr != nil {
		tr.bind(p.root, p.id)
	}
	return p, nil
}

// poll asks for one job's state once and, when it finished, fetches and
// verifies its report. It reports whether the job is over.
func (w *svc) poll(s *stack, tr *tracer, c *svcCounts, ph *phase, p *pending) (bool, error) {
	t0 := time.Now()
	var sp int32
	if tr != nil {
		sp = tr.open("jobd.status", p.root, p.id)
	}
	info, err := s.cl.Status(p.id)
	if tr != nil {
		tr.close(sp)
	}
	c.statusNs += int64(time.Since(t0))
	c.statuses++
	if err != nil {
		return false, fmt.Errorf("status %s: %w", p.id, err)
	}
	state := jobd.JobState(info.State)
	if !p.started && state != jobd.StateQueued {
		p.started = true
		c.waitNs += int64(t0.Sub(p.acked))
	}
	switch state {
	case jobd.StateQueued, jobd.StateRunning:
		if time.Since(p.t0) < jobTimeout {
			return false, nil
		}
		s.cl.Cancel(p.id)
		ph.fail()
		fmt.Fprintf(os.Stderr, "job %s (%s) timed out\n", p.id, p.e.label)
		return true, nil
	case jobd.StateDone:
	default:
		ph.fail()
		fmt.Fprintf(os.Stderr, "job %s (%s) ended %s: %s\n", p.id, p.e.label, info.State, info.Err)
		return true, nil
	}
	c.doneState++

	f0 := time.Now()
	var fp int32
	var before int64
	if tr != nil {
		fp = tr.open("jobd.fetch", p.root, p.id)
		before = s.clientConn.in.bytes()
	}
	rep, err := s.cl.Fetch(p.id)
	if tr != nil {
		tr.close(fp)
		c.fetchBytes += s.clientConn.in.bytes() - before
	}
	c.fetchNs += int64(time.Since(f0))
	if err != nil {
		return false, fmt.Errorf("fetch %s: %w", p.id, err)
	}

	var rp int32
	if tr != nil {
		rp = tr.open("harness.render", p.root, p.id)
	}
	verr := fmt.Errorf("%s: finished without a report", p.e.label)
	if rep.Report != nil {
		verr = p.e.verify(rep.Job.Params, rep.Report.Explore(), rep.Witness)
	}
	if tr != nil {
		tr.close(rp)
		tr.finish(p.id)
	}
	if rep.Report != nil {
		now := int64(scrape(s.reg)["search_runs_total"])
		explored := now - c.explored
		c.explored = now
		if err := p.e.runsCheck(explored, int64(rep.Report.Runs)); err != nil {
			return false, err
		}
		c.runs += int64(rep.Report.Runs)
		c.pruned += int64(rep.Report.Pruned)
		c.distinct += int64(rep.Report.Distinct)
	}
	if verr != nil {
		ph.fail()
		ph.mismatch = verr
		return true, nil
	}
	ph.finish(p.t0, p.kind, int64(rep.Report.Runs))
	return true, nil
}

// crossCheck holds the benchmark's own counts against the daemon's metric
// registry, which is what /metrics serves: explored runs, and jobs done.
func (w *svc) crossCheck(s *stack, c *svcCounts) error {
	m := scrape(s.reg)
	if got := int64(m["search_runs_total"]); got != c.runs {
		return fmt.Errorf("registry search_runs_total = %d, reports sum to %d runs", got, c.runs)
	}
	if got := int(m[`jobd_jobs{state="done"}`]); got != c.doneState {
		return fmt.Errorf(`registry jobd_jobs{state="done"} = %d, client saw %d jobs done`, got, c.doneState)
	}
	return nil
}

// layers derives the traced loop's per-layer metrics, after holding the
// worker connection's frame counts against the registry's wire series.
func (w *svc) layers(s *stack, tr *tracer, c *svcCounts) ([]metric, error) {
	m, err := wireCheck(s)
	if err != nil {
		return nil, err
	}
	st := tr.stats()
	jobs := float64(st.jobs)
	per := func(v float64) float64 { return v / jobs }
	frames := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, "dist_wire_frames_total{") {
			frames += v
		}
	}
	out := []metric{
		{"harness.validate_us", "us", st.perCall("harness.validate", 1e3)},
		{"harness.resolve_us", "us", st.perCall("harness.resolve", 1e3)},
		{"harness.resolves_per_job", "count", per(float64(st.calls["harness.resolve"]))},
		{"harness.render_us", "us", st.perCall("harness.render", 1e3)},
		{"jobd.submit_ms", "ms", float64(c.submitNs) / 1e6 / jobs},
		{"jobd.queue_wait_ms", "ms", float64(c.waitNs) / 1e6 / jobs},
		{"jobd.status_us", "us", float64(c.statusNs) / 1e3 / float64(c.statuses)},
		{"jobd.status_polls_per_job", "count", per(float64(c.statuses))},
		{"jobd.fetch_ms", "ms", float64(c.fetchNs) / 1e6 / jobs},
		{"jobd.fetch_bytes", "bytes", per(float64(c.fetchBytes))},
		{"jobd.fsyncs_per_job", "count", per(m["jobd_fsync_seconds_count"])},
		{"jobd.fsync_ms_per_job", "ms", per(m["jobd_fsync_seconds_sum"] * 1e3)},
		{"jobd.journal_bytes_per_job", "bytes", per(m["jobd_journal_bytes_total"])},
		{"jobd.compactions_per_job", "count", per(m["jobd_journal_compactions_total"])},
		{"dist.leases_per_job", "count", per(m["dist_leases_issued_total"])},
		{"dist.barriers_per_job", "count", per(m["dist_wave_barriers_total"])},
		{"dist.requeues_per_job", "count", per(m["dist_leases_requeued_total"])},
		{"wire.lease_bytes_per_job", "bytes", per(m[`dist_wire_bytes_total{kind="lease",dir="out"}`])},
		{"wire.result_bytes_per_job", "bytes", per(m[`dist_wire_bytes_total{kind="result",dir="in"}`])},
		{"wire.frames_per_job", "count", per(frames)},
		{"wire.client_bytes_per_job", "bytes", per(float64(s.clientConn.in.bytes() + s.clientConn.out.bytes()))},
		{"wire.worker_write_ms_per_job", "ms", per(float64(s.workerConn.writeNs.Load()) / 1e6)},
	}
	out = append(out, searchLayers(st, c.runs, c.pruned, c.distinct)...)
	return out, nil
}

// searchLayers are the trace, shmem and sched metrics of a traced loop of
// check jobs, from the job reports and the System seams.
func searchLayers(st layerStats, runs, pruned, distinct int64) []metric {
	jobs := float64(st.jobs)
	per := func(v float64) float64 { return v / jobs }
	out := []metric{
		{"trace.runs_per_job", "count", per(float64(runs))},
		{"trace.pruned_per_job", "count", per(float64(pruned))},
		{"trace.distinct_per_job", "count", per(float64(distinct))},
		{"trace.systems_built_per_job", "count", per(float64(st.calls["harness.factory"]))},
		{"trace.check_calls_per_job", "count", per(float64(st.calls["trace.check"]))},
		{"trace.check_ns", "ns", st.perCall("trace.check", 1)},
		{"trace.self_ms_per_job", "ms", per(float64(st.trSelf) / 1e6)},
		{"shmem.fingerprint_calls_per_job", "count", per(float64(st.calls["shmem.fingerprint"]))},
		{"shmem.fingerprint_ns", "ns", st.perCall("shmem.fingerprint", 1)},
		{"sched.canon_calls_per_job", "count", per(float64(st.calls["sched.canon"]))},
		{"sched.canon_ns", "ns", st.perCall("sched.canon", 1)},
		{"trace.forks_per_job", "count", per(float64(st.calls["trace.fork"]))},
		{"trace.fork_ns", "ns", st.perCall("trace.fork", 1)},
		{"harness.factory_ns", "ns", st.perCall("harness.factory", 1)},
	}
	return append(out, selfTimes(st)...)
}

// selfTimes are the per-layer self times of a traced loop, per job: each
// layer's span durations minus the part their child spans cover, and for
// "job" the part of the job span no instrumented call covers.
func selfTimes(st layerStats) []metric {
	var out []metric
	for _, l := range []string{"job", "harness", "jobd", "trace", "shmem", "sched", "core", "augsnap"} {
		if ns, ok := st.self[l]; ok {
			out = append(out, metric{"self." + l + "_ms_per_job", "ms", float64(ns) / 1e6 / float64(st.jobs)})
		}
	}
	return out
}

// wireCheck waits for the worker connection's frame counts and the
// registry's wire series to agree — frames still in flight land within
// moments — and returns the final scrape. Both count the 4-byte frame
// header; the registry starts counting after the hello frame.
func wireCheck(s *stack) (map[string]float64, error) {
	var msg string
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		m := scrape(s.reg)
		inTotal, in := s.workerConn.in.snapshot()
		outTotal, out := s.workerConn.out.snapshot()
		var regOut, regIn float64
		for k, v := range m {
			if strings.HasPrefix(k, "dist_wire_bytes_total{") {
				if strings.HasSuffix(k, `dir="out"}`) {
					regOut += v
				} else {
					regIn += v
				}
			}
		}
		lease, result := m[`dist_wire_bytes_total{kind="lease",dir="out"}`], m[`dist_wire_bytes_total{kind="result",dir="in"}`]
		msg = fmt.Sprintf("worker conn read %d bytes (%d lease) and wrote %d (%d result, %d hello); registry sent %.0f (%.0f lease) and received %.0f (%.0f result)",
			inTotal, in["lease"].bytes, outTotal, out["result"].bytes, out["hello"].bytes, regOut, lease, regIn, result)
		if float64(in["lease"].bytes) == lease && float64(out["result"].bytes) == result &&
			float64(inTotal) == regOut && float64(outTotal-out["hello"].bytes) == regIn {
			return m, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("wire counts disagree: %s", msg)
		}
	}
}
