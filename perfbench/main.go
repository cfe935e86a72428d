// Command perfbench is the check-job benchmark. It brings up checkd's
// service stack in-process (daemon with an on-disk journal, one TCP worker
// with 2 slots, one client) and drives seeded check jobs through it and
// through the in-process search, byte-checking every report against an
// in-process reference. A traced run times each layer from outside, around
// calls into its public functions and inside the seams the caller hands in.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload svc-large --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: with --trace 0 it
// carries the end-to-end metrics, with --trace 1 the per-layer metrics.
// Everything before it is the same numbers by name for people, plus the
// recorded job sequence.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"time"
)

// workload is one closed-loop job mix.
type workload interface {
	// prepare computes the reference outputs; it is not timed.
	prepare() error
	// weights are the deck weights of the pool the sequence deals from.
	weights() []int
	// run is one closed loop: it deals jobs from seq until dur has passed
	// and the current deck is complete, waits for every job, verifies each
	// output, and runs the counter cross-checks. With tr set it also returns
	// the per-layer metrics.
	run(b *bench, seq *sequence, tr *tracer, dur time.Duration) (*phase, []metric, error)
}

var workloads = map[string]func() workload{
	"svc-large":   func() workload { return &svc{pool: largePool()} },
	"local-large": func() workload { return &local{pool: largePool()} },
	"sim":         func() workload { return &sim{} },
}

// endToEnd are the metrics a --trace 0 run reports in its JSON line: the
// timings at the host probe's reference speed, which hold still from run to
// run on a shared host where the timings as measured do not.
var endToEnd = []string{"setup_s", "jobs_per_s_at_ref", "runs_per_s_at_ref", "job_latency_p50_ms_at_ref", "job_latency_tail_ms_at_ref", "cpu_ms_per_job_at_ref", "peak_rss_mb"}

type metric struct {
	name, unit string
	value      float64
}

// setupReps is how many times setup_s brings the service stack up.
const setupReps = 61

// notes are printed after a metric's unit, by metric name.
var notes = map[string]string{
	"setup_s":       fmt.Sprintf("(median of %d bring-ups)", setupReps),
	"peak_rss_mb":   "(per-job high-water marks, probe excluded, each kind's median weighted by the deck)",
	"host_probe_ms": fmt.Sprintf("(median; the _at_ref figures scale each job by %.1f ms over the probes around it)", probeRefMs),
}

type bench struct {
	workload string
	seed     int64
	dir      string // scratch space inside the checkout, removed at the end
	out      io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: svc-large | local-large | sim")
	seed := fs.Int64("seed", 1, "seed of the job sequence")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk := workloads[*name]
	if mk == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	b := &bench{workload: *name, seed: *seed, dir: scratch, out: out}
	res, err := b.measure(mk(), time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (b *bench) measure(w workload, dur time.Duration, traced bool) (*result, error) {
	if err := w.prepare(); err != nil {
		return nil, err
	}
	// setup_s is the same on every workload: bringing checkd's service
	// stack up until the first job can be submitted. The in-process
	// workloads have no set-up beyond resolving each job, which takes
	// microseconds and is timed inside every job. The reference
	// computation's garbage is collected first, not during set-up.
	debug.FreeOSMemory()
	setups, err := setupTimes(b.dir, setupReps)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	fmt.Fprintf(b.out, "workload %s, seed %d, %v measured, traced=%v\n", b.workload, b.seed, dur, traced)
	setup := metric{"setup_s", "s", median(setups)}

	var phases []*phase
	var emit []metric
	if !traced {
		seq := newSequence(b.seed, w.weights())
		ph, _, err := w.run(b, seq, nil, dur)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
		b.record(seq)
		emit = b.print("end-to-end", ph.endToEnd(setup))
	} else {
		// A traced run measures half its time untraced and half traced, on
		// the same job sequence; the ratio of the two is the tracing overhead.
		plain, _, err := w.run(b, newSequence(b.seed, w.weights()), nil, dur/2)
		if err != nil {
			return nil, err
		}
		seq := newSequence(b.seed, w.weights())
		tr := newTracer()
		ph, layers, err := w.run(b, seq, tr, dur/2)
		if err != nil {
			return nil, err
		}
		phases = append(phases, plain, ph)
		b.record(seq)
		// One file per workload, overwritten by its next traced run.
		path := filepath.Join(".bench_build", "perfbench", "spans-"+b.workload+".jsonl")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(b.out, "spans written to %s\n", path)
		b.print("end-to-end, untraced half", plain.endToEnd(setup))
		b.print("end-to-end, traced half", ph.endToEnd(setup))
		plainRate, tracedRate := plain.scaled().jobsPerS, ph.scaled().jobsPerS
		layers = append(layers,
			metric{"overhead.untraced_jobs_per_s", "1/s", plainRate},
			metric{"overhead.traced_jobs_per_s", "1/s", tracedRate},
			metric{"overhead.traced_over_untraced", "ratio", tracedRate / plainRate})
		b.print("per-layer, traced half", layers)
		emit = fill(layers)
	}

	res := &result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.mismatch != nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", p.mismatch)
		}
	}
	for _, m := range emit {
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return res, nil
}

// print writes ms by name and returns those the JSON line of an untraced
// run carries.
func (b *bench) print(title string, ms []metric) []metric {
	fmt.Fprintf(b.out, "-- %s --\n", title)
	var out []metric
	for _, m := range ms {
		fmt.Fprintf(b.out, "%-40s %18.6f %s %s\n", m.name, m.value, m.unit, notes[m.name])
		if slices.Contains(endToEnd, m.name) {
			out = append(out, m)
		}
	}
	return out
}

func (b *bench) record(seq *sequence) {
	fmt.Fprintf(b.out, "sequence (seed %d, %d jobs, pool indices by deck): %s\n", b.seed, len(seq.dealt), seq.record())
}

// perLayer are the metrics a traced run carries in its JSON line: the
// counts, which read 0 on a workload that never reaches their layer, and
// the timings every workload measures. Timings of layers only some
// workloads reach are printed by name above the JSON line.
var perLayer = []struct{ name, unit string }{
	{"harness.resolves_per_job", "count"},
	{"jobd.status_polls_per_job", "count"},
	{"jobd.fetch_bytes", "bytes"},
	{"jobd.fsyncs_per_job", "count"},
	{"jobd.journal_bytes_per_job", "bytes"},
	{"jobd.compactions_per_job", "count"},
	{"dist.leases_per_job", "count"},
	{"dist.barriers_per_job", "count"},
	{"dist.requeues_per_job", "count"},
	{"wire.lease_bytes_per_job", "bytes"},
	{"wire.result_bytes_per_job", "bytes"},
	{"wire.frames_per_job", "count"},
	{"wire.client_bytes_per_job", "bytes"},
	{"trace.runs_per_job", "count"},
	{"trace.pruned_per_job", "count"},
	{"trace.distinct_per_job", "count"},
	{"trace.systems_built_per_job", "count"},
	{"trace.check_calls_per_job", "count"},
	{"shmem.fingerprint_calls_per_job", "count"},
	{"sched.canon_calls_per_job", "count"},
	{"trace.forks_per_job", "count"},
	{"core.h_steps_per_run", "count"},
	{"trace.spec_checks_per_job", "count"},
	{"self.job_ms_per_job", "ms"},
	{"self.harness_ms_per_job", "ms"},
	{"self.trace_ms_per_job", "ms"},
	{"overhead.untraced_jobs_per_s", "1/s"},
	{"overhead.traced_jobs_per_s", "1/s"},
	{"overhead.traced_over_untraced", "ratio"},
}

// fill returns the perLayer metrics from ms, 0 for counts ms lacks.
func fill(ms []metric) []metric {
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.name] = m
	}
	out := make([]metric, len(perLayer))
	for i, p := range perLayer {
		out[i] = metric{p.name, p.unit, byName[p.name].value}
	}
	return out
}
