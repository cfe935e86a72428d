package main

import (
	"runtime/debug"
	"time"
)

// phase is the outcome of one closed loop, which runs one job at a time.
type phase struct {
	weights []int // the deck: how many jobs of each pool entry it holds
	deck    int   // jobs per deck
	// warm counts down the jobs of the first deck, which warm the process
	// and the stack up: they are verified but not timed.
	warm      int
	kind      []int     // per timed job, its pool entry
	lat       []float64 // per timed job, ms from submit to verified report
	cpu       []float64 // per timed job, process CPU in ms
	probe     []float64 // per timed job, the host probe run right after it, ms
	jobRuns   []int64   // per timed job, schedules explored
	attempted int
	failed    int // failed, rejected, timed out or mismatching
	mismatch  error
	start     time.Time
	lastCPU   time.Duration // process CPU when the current job started
	rss       []float64     // per timed job, its high-water RSS in MB
}

// newPhase starts a loop's account. Memory the earlier work freed is
// returned to the OS first, so the loop's RSS marks are its own.
func newPhase(seq *sequence) *phase {
	debug.FreeOSMemory()
	return &phase{weights: seq.weights, deck: deck(seq), warm: deck(seq), start: time.Now(), lastCPU: cpuTime()}
}

// over reports whether the timed part of the loop has lasted dur.
func (p *phase) over(dur time.Duration) bool { return p.warm == 0 && time.Since(p.start) >= dur }

// timed counts one finished job, verified or not, and reports whether it
// is timed. The warm-up deck's last job starts the clock.
func (p *phase) timed() bool {
	if p.warm == 0 {
		return true
	}
	if p.warm--; p.warm == 0 {
		p.start = time.Now()
	}
	return false
}

// fail records one failed, rejected, timed-out or mismatching job.
func (p *phase) fail() {
	p.failed++
	p.timed()
	p.between()
}

// finish records one verified job of pool entry kind that started at t0,
// then runs the host probe before the next job starts.
func (p *phase) finish(t0 time.Time, kind int, runs int64) {
	now, cpu := time.Now(), cpuTime()
	timed := p.timed()
	if timed {
		p.kind = append(p.kind, kind)
		p.lat = append(p.lat, float64(now.Sub(t0))/1e6)
		p.cpu = append(p.cpu, float64(cpu-p.lastCPU)/1e6)
		p.jobRuns = append(p.jobRuns, runs)
		p.rss = append(p.rss, peakRSSMB()-probeMB())
	}
	if ms := probe(); timed {
		p.probe = append(p.probe, ms)
	}
	p.between()
}

// between readies the process for the next job: it resets the RSS
// high-water mark, and neither this nor the probe counts in the next job's
// latency or CPU time.
func (p *phase) between() {
	resetPeakRSS()
	p.lastCPU = cpuTime()
}

// probeWindow is how many probes on each side of a job its scale factor
// takes the median of: enough to smooth the probe's own jitter, few enough
// to follow the host's drift within a run.
const probeWindow = 5

// scale returns, per timed job, the factor that expresses its times at the
// probe's reference speed: probeRefMs over the median probe time around it.
func (p *phase) scale() []float64 {
	out := make([]float64, len(p.probe))
	for i := range out {
		lo, hi := max(i-probeWindow, 0), min(i+probeWindow+1, len(p.probe))
		out[i] = probeRefMs / median(p.probe[lo:hi])
	}
	return out
}

// deckSum sums a deck's worth of xs: each job kind's median stands for its
// jobs, weighted by the kind's count in a deck, so one stalled job does not
// move the figure.
func (p *phase) deckSum(xs []float64) float64 {
	var sum float64
	for k, w := range p.weights {
		var v []float64
		for i, kind := range p.kind {
			if kind == k {
				v = append(v, xs[i])
			}
		}
		sum += float64(w) * median(v)
	}
	return sum
}

// loopFigures are a loop's timing figures, from one set of per-job
// latencies and CPU times.
type loopFigures struct {
	jobsPerS, runsPerS, p50, tail, tailPct, cpuMs float64
}

// figures derives the timing figures from latencies lat and CPU times cpu.
// The rates take a deck's time as the deckSum of its latencies.
func (p *phase) figures(lat, cpu []float64) loopFigures {
	runs := make([]float64, len(p.jobRuns))
	for i, r := range p.jobRuns {
		runs[i] = float64(r)
	}
	ms := p.deckSum(lat)
	f := loopFigures{
		jobsPerS: float64(p.deck) * 1e3 / ms,
		runsPerS: p.deckSum(runs) * 1e3 / ms,
		p50:      median(lat),
		cpuMs:    p.deckSum(cpu) / float64(p.deck),
	}
	f.tail, f.tailPct = tail(lat)
	return f
}

// scaled returns the loop's timing figures at the probe's reference speed.
func (p *phase) scaled() loopFigures {
	s := p.scale()
	lat, cpu := make([]float64, len(p.lat)), make([]float64, len(p.cpu))
	for i := range lat {
		lat[i], cpu[i] = p.lat[i]*s[i], p.cpu[i]*s[i]
	}
	return p.figures(lat, cpu)
}

// endToEnd derives the end-to-end metrics of one loop: the figures as
// measured, the host probe, and the figures at the probe's reference speed.
func (p *phase) endToEnd(setup metric) []metric {
	raw, ref := p.figures(p.lat, p.cpu), p.scaled()
	return []metric{
		setup,
		{"jobs_per_s", "1/s", raw.jobsPerS},
		{"runs_per_s", "1/s", raw.runsPerS},
		{"job_latency_p50_ms", "ms", raw.p50},
		{"job_latency_samples", "count", float64(len(p.lat))},
		{"job_latency_tail_ms", "ms", raw.tail},
		{"job_latency_tail_pct", "%", raw.tailPct},
		{"failed_frac", "ratio", float64(p.failed) / float64(max(p.attempted, 1))},
		{"cpu_ms_per_job", "ms", raw.cpuMs},
		{"peak_rss_mb", "MB", p.deckSum(p.rss) / float64(p.deck)},
		{"host_probe_ms", "ms", median(p.probe)},
		{"jobs_per_s_at_ref", "1/s", ref.jobsPerS},
		{"runs_per_s_at_ref", "1/s", ref.runsPerS},
		{"job_latency_p50_ms_at_ref", "ms", ref.p50},
		{"job_latency_tail_ms_at_ref", "ms", ref.tail},
		{"cpu_ms_per_job_at_ref", "ms", ref.cpuMs},
	}
}
