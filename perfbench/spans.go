package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"revisionist/internal/dist"
	"revisionist/internal/dist/wire"
	"revisionist/internal/sched"
	"revisionist/internal/trace"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's origin; Parent indexes the causing span (-1 = root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Job    string `json:"job,omitempty"`
}

// Hook kinds: the System and Factory seams inside one job's search.
const (
	hkFactory = iota
	hkCheck
	hkFingerprint
	hkCanon
	hkFork
	nHooks
)

var hookNames = [nHooks]string{"harness.factory", "trace.check", "shmem.fingerprint", "sched.canon", "trace.fork"}

type interval struct{ lo, hi int64 }

// hookBuf collects the hook calls of one built System and its forks. Each
// call is kept as an interval only until the job ends — long enough to
// compute the job's self times — and as per-kind counts and durations
// after. A System is driven by one goroutine at a time, so its buffer's
// lock is uncontended until the job's finish drains it.
type hookBuf struct {
	mu sync.Mutex
	iv []interval
	n  [nHooks]int64
	ns [nHooks]int64
}

func (b *hookBuf) hook(k int, lo, hi int64) {
	b.mu.Lock()
	b.n[k]++
	b.ns[k] += hi - lo
	b.iv = append(b.iv, interval{lo, hi})
	b.mu.Unlock()
}

// jobTrace is one job's root span and the hook buffers of its Systems.
type jobTrace struct {
	span int32 // the job's root span, -1 until bound

	mu   sync.Mutex
	bufs []*hookBuf
}

// tracer keeps the traced run's spans in memory and writes them out when
// the run ends. Every span is recorded from outside a layer: around a call
// into its public functions, or inside a seam the caller hands in.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	jobs  map[string]*jobTrace
	// Per finished job: hook totals, and the two self times.
	hookN, hookNs   [nHooks]int64
	jobSelf, trSelf int64
	finished        int

	// submit is the index+1 of the submit span in flight (0 = none): the
	// daemon validates a submission before it has an id, so the validate
	// span's parent is found through the one client's current call.
	submit atomic.Int32
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), jobs: map[string]*jobTrace{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// add records a span and returns its index. A span with a job id and no
// parent is attached to that job's root span when the job finishes.
func (t *tracer) add(name string, start, end int64, parent int32, job string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Job: job})
	return int32(len(t.spans) - 1)
}

// open starts a span now; close ends it.
func (t *tracer) open(name string, parent int32, job string) int32 {
	return t.add(name, t.now(), 0, parent, job)
}

func (t *tracer) close(idx int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[idx].End = end
	t.mu.Unlock()
}

// job returns the hook collector of job id, creating it on first sight:
// the daemon may resolve a job before its client has seen the ack.
func (t *tracer) job(id string) *jobTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	j := t.jobs[id]
	if j == nil {
		j = &jobTrace{span: -1}
		t.jobs[id] = j
	}
	return j
}

// bind names the job of root span idx once its id is known.
func (t *tracer) bind(idx int32, id string) *jobTrace {
	j := t.job(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].Job = id
	j.span = idx
	return j
}

// finish closes job id's root span at end and settles its account: the job
// span's self time (not covered by any child span or hook call) and the
// trace layer's self time (the job span minus its hook calls).
func (t *tracer) finish(id string) {
	end := t.now()
	j := t.job(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	root := &t.spans[j.span]
	root.End = end
	var kids []interval
	for i := range t.spans {
		s := &t.spans[i]
		if s.Job == id && s.Parent < 0 && int32(i) != j.span {
			s.Parent = j.span
		}
		if s.Parent == j.span {
			kids = append(kids, interval{s.Start, s.End})
		}
	}
	j.mu.Lock()
	bufs := j.bufs
	j.bufs = nil
	j.mu.Unlock()
	var hooks []interval
	for _, b := range bufs {
		b.mu.Lock()
		hooks = append(hooks, b.iv...)
		for k := range b.n {
			t.hookN[k] += b.n[k]
			t.hookNs[k] += b.ns[k]
		}
		b.mu.Unlock()
	}
	dur := root.End - root.Start
	t.trSelf += dur - cover(root.Start, root.End, hooks)
	t.jobSelf += dur - cover(root.Start, root.End, append(hooks, kids...))
	t.finished++
}

// cover returns how much of [lo, hi) the union of ivs covers. It sorts ivs.
func cover(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, cur), min(iv.hi, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerStats is the per-layer account of the finished jobs: for each span
// name its call count and total duration, and for each layer its self
// time (span durations minus the part their child spans cover).
type layerStats struct {
	calls, ns map[string]int64
	self      map[string]int64
	trSelf    int64 // the job spans minus the hook calls they cover
	jobs      int
}

func (t *tracer) stats() layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := layerStats{calls: map[string]int64{}, ns: map[string]int64{}, self: map[string]int64{}, jobs: t.finished}
	kids := make(map[int32][]interval)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	for i, s := range t.spans {
		if s.Name == "job" {
			continue // settled per job in finish, hooks included
		}
		d := s.End - s.Start
		st.calls[s.Name]++
		st.ns[s.Name] += d
		st.self[layer(s.Name)] += d - cover(s.Start, s.End, kids[int32(i)])
	}
	for k, name := range hookNames {
		if t.hookN[k] > 0 {
			st.calls[name] += t.hookN[k]
			st.ns[name] += t.hookNs[k]
			st.self[layer(name)] += t.hookNs[k]
		}
	}
	if t.finished > 0 {
		st.self["job"] += t.jobSelf
	}
	st.trSelf = t.trSelf
	return st
}

func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// perCall is the mean duration of one call of name in unit (ns per unit).
func (st layerStats) perCall(name string, unit float64) float64 {
	if st.calls[name] == 0 {
		return 0
	}
	return float64(st.ns[name]) / float64(st.calls[name]) / unit
}

func (st layerStats) perJob(v float64) float64 {
	if st.jobs == 0 {
		return 0
	}
	return v / float64(st.jobs)
}

// write stores every span as one JSON line, followed by the per-hook
// totals that stand in for the individual hook calls.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		enc.Encode(s)
	}
	for k, name := range hookNames {
		fmt.Fprintf(w, `{"hook":%q,"calls":%d,"total_ns":%d}`+"\n", name, t.hookN[k], t.hookNs[k])
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resolver wraps a dist.Resolver: each resolve is a harness.resolve span,
// and the factory it returns is wrapped so every System built for the job
// reports its hook calls. Everything is forwarded unchanged.
func (t *tracer) resolver(base dist.Resolver) dist.Resolver {
	return func(job wire.Job) (int, trace.Factory, error) {
		j := t.job(job.ID)
		t0 := t.now()
		n, f, err := base(job)
		t.add("harness.resolve", t0, t.now(), -1, job.ID)
		if f != nil {
			f = t.factory(j, f)
		}
		return n, f, err
	}
}

func (t *tracer) factory(j *jobTrace, f trace.Factory) trace.Factory {
	return func(gate sched.Stepper) trace.System {
		b := &hookBuf{}
		j.mu.Lock()
		j.bufs = append(j.bufs, b)
		j.mu.Unlock()
		t0 := t.now()
		sys := f(gate)
		b.hook(hkFactory, t0, t.now())
		return t.system(b, sys)
	}
}

// system wraps a System's Check, Fingerprint, CanonicalFingerprint and
// Fork hooks, keeping absent hooks absent (the explorer reads their
// presence as capabilities); a forked System is wrapped again.
func (t *tracer) system(j *hookBuf, sys trace.System) trace.System {
	if check := sys.Check; check != nil {
		sys.Check = func(res *sched.Result) error {
			t0 := t.now()
			err := check(res)
			j.hook(hkCheck, t0, t.now())
			return err
		}
	}
	if fp := sys.Fingerprint; fp != nil {
		sys.Fingerprint = func(h *maphash.Hash) {
			t0 := t.now()
			fp(h)
			j.hook(hkFingerprint, t0, t.now())
		}
	}
	if cf := sys.CanonicalFingerprint; cf != nil {
		sys.CanonicalFingerprint = func(h *maphash.Hash) uint64 {
			t0 := t.now()
			v := cf(h)
			j.hook(hkCanon, t0, t.now())
			return v
		}
	}
	if fork := sys.Fork; fork != nil {
		sys.Fork = func(gate sched.Stepper) trace.System {
			t0 := t.now()
			s := fork(gate)
			j.hook(hkFork, t0, t.now())
			return t.system(j, s)
		}
	}
	return sys
}

// validate wraps the daemon's admission check as a harness.validate span
// under the client's submit call.
func (t *tracer) validate(base func(wire.Job) (wire.Job, error)) func(wire.Job) (wire.Job, error) {
	return func(job wire.Job) (wire.Job, error) {
		t0 := t.now()
		out, err := base(job)
		t.add("harness.validate", t0, t.now(), t.submit.Load()-1, "")
		return out, err
	}
}
