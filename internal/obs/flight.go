// The flight recorder: a bounded, per-job ring buffer of timestamped
// lifecycle events (wave barriers, leases, re-leases, worker deaths,
// resumes). It answers "what has this job been doing" without logs: the
// daemon dumps a job's ring over /jobs/<id>/trace and distcheck -trace.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Event is one recorded flight event.
type Event struct {
	At     time.Time `json:"at"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail,omitempty"`
}

// ring is one job's bounded event history. When full, new events overwrite
// the oldest; Total keeps counting so dumps report how much was dropped.
type ring struct {
	events []Event
	next   int
	total  int
}

// Flight is the per-job flight recorder. Rings are bounded two ways: at
// most eventsPerJob events per job (oldest overwritten) and at most maxJobs
// rings (oldest job evicted), so a long-lived daemon's memory stays flat.
// A ring grows with its events rather than reserving eventsPerJob up front:
// a typical job logs a fraction of the bound, and rings outlive their jobs.
// Rings are retained after a job completes — the trace of a finished job is
// exactly when you want to read it. A nil *Flight is a no-op recorder.
type Flight struct {
	mu           sync.Mutex
	clock        Clock
	eventsPerJob int
	maxJobs      int
	jobs         map[string]*ring
	order        []string // ring creation order, for eviction
}

// NewFlight returns a recorder keeping up to eventsPerJob events for each
// of up to maxJobs jobs, timestamping with clock (nil = wall clock).
// Non-positive bounds take modest defaults.
func NewFlight(eventsPerJob, maxJobs int, clock Clock) *Flight {
	if eventsPerJob <= 0 {
		eventsPerJob = 256
	}
	if maxJobs <= 0 {
		maxJobs = 1024
	}
	return &Flight{
		clock:        clock,
		eventsPerJob: eventsPerJob,
		maxJobs:      maxJobs,
		jobs:         make(map[string]*ring),
	}
}

// Log records one event for job (no-op on a nil receiver).
func (f *Flight) Log(job, kind, detail string) {
	if f == nil {
		return
	}
	at := f.clock.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.jobs[job]
	if r == nil {
		if len(f.order) >= f.maxJobs {
			delete(f.jobs, f.order[0])
			f.order = f.order[1:]
		}
		r = &ring{}
		f.jobs[job] = r
		f.order = append(f.order, job)
	}
	ev := Event{At: at, Kind: kind, Detail: detail}
	if len(r.events) < f.eventsPerJob {
		r.events = append(r.events, ev)
	} else {
		r.events[r.next] = ev
		r.next = (r.next + 1) % f.eventsPerJob
	}
	r.total++
}

// Dump returns job's events oldest-first, the count of events the ring has
// dropped, and whether the job has a ring at all. On a nil receiver it
// reports no ring.
func (f *Flight) Dump(job string) (events []Event, dropped int, ok bool) {
	if f == nil {
		return nil, 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.jobs[job]
	if r == nil {
		return nil, 0, false
	}
	events = make([]Event, 0, len(r.events))
	events = append(events, r.events[r.next:]...)
	events = append(events, r.events[:r.next]...)
	return events, r.total - len(r.events), true
}

// Jobs lists the jobs with rings, sorted.
func (f *Flight) Jobs() []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	jobs := make([]string, 0, len(f.jobs))
	for j := range f.jobs {
		jobs = append(jobs, j)
	}
	sort.Strings(jobs)
	return jobs
}
