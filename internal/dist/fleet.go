package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"revisionist/internal/dist/wire"
	"revisionist/internal/trace"
)

// ErrCanceled reports a job cancelled by request before it finished.
var ErrCanceled = errors.New("dist: job canceled")

// errFleetClosed answers calls into a fleet whose Run loop has returned.
var errFleetClosed = errors.New("dist: fleet stopped")

// SessionResult is the terminal state of one job: its merged report (possibly
// partial, alongside trace.ErrInterrupted) or the error that ended it.
type SessionResult struct {
	ID     string
	Report *trace.ExploreReport
	Err    error
	// Resumed counts subtree outcomes restored from a Progress snapshot
	// rather than leased: a resumed job re-leases only the unfinished
	// frontier.
	Resumed int
	// Progress is the session's resumable snapshot, attached when the fleet
	// was interrupted mid-search (Err wraps trace.ErrInterrupted): feed it to
	// Resume to continue without re-running completed subtrees.
	Progress *Progress
}

// FleetStats is a point-in-time snapshot of the fleet's workers.
type FleetStats struct {
	Workers int // connected workers
	Slots   int // their summed lease capacity
}

// leaseKey identifies one outstanding lease on one worker. Inflight
// accounting is keyed by it: a slot is released exactly when its key is
// removed — on result arrival, job failure, retirement, cancellation, or
// worker death — never twice, however those races interleave.
type leaseKey struct {
	job string
	id  int
}

// workerConn is the coordinator's per-worker state: the framed connection,
// the lease capacity from its hello, and per-job multiplexing state — which
// jobs were announced, each job's mirror cursor into the session's join
// log, and the outstanding lease keys.
type workerConn struct {
	c        *wire.Conn
	raw      net.Conn
	slots    int
	inflight int
	jobs     map[string]bool
	cursors  map[string]int
	keys     map[leaseKey]bool

	// lastSeen is the arrival time of the worker's latest frame; deadlines
	// holds each outstanding lease's completion deadline. Both feed
	// checkLiveness: a worker silent past the miss window or holding an
	// expired lease is retired.
	lastSeen  time.Time
	deadlines map[leaseKey]time.Time
}

// release reclaims one outstanding lease slot and its deadline.
func (w *workerConn) release(k leaseKey) {
	delete(w.keys, k)
	delete(w.deadlines, k)
	w.inflight--
}

// event is one worker-side occurrence delivered to the fleet loop.
type event struct {
	join *workerConn
	dead *workerConn
	from *workerConn
	res  *wire.Result
	fail *wire.Fail
	pong bool
}

// Fleet multiplexes any number of concurrent job sessions over one worker
// population. All state is owned by the single Run goroutine; workers post
// events, and Start/Cancel/Stats inject closures over a control channel, so
// there is no locking anywhere in the scheduling path. Each session's wave
// barriers, closure mirrors, and bases are its own (see session), so
// sharing the fleet cannot change any job's merged report.
type Fleet struct {
	resolve Resolver
	events  chan event
	ctl     chan func()
	done    chan struct{}

	// lv is the failure-detection policy; onProgress, when set, receives
	// each session's resumable snapshot at every completed wave barrier.
	lv         Liveness
	onProgress func(id string, p *Progress)

	// obs and onEvent are the observability taps (WithObs/WithEventLog):
	// metrics and per-job flight-recorder events. Both are pure side
	// channels — nil leaves them off and changes nothing else.
	obs     *FleetObs
	onEvent func(job, kind, detail string)

	// loop-owned.
	sessions map[string]*session
	order    []*session // the round-robin fairness ring, least recently served first
	workers  map[*workerConn]bool

	// stats mirrors: written by the loop after every step, read by Stats.
	statWorkers atomic.Int64
	statSlots   atomic.Int64
}

// NewFleet builds a fleet around a job resolver. The caller must run exactly
// one Run goroutine before using it.
func NewFleet(resolve Resolver, opts ...FleetOption) *Fleet {
	f := &Fleet{
		resolve:  resolve,
		events:   make(chan event),
		ctl:      make(chan func()),
		done:     make(chan struct{}),
		lv:       Liveness{}.withDefaults(),
		sessions: map[string]*session{},
		workers:  map[*workerConn]bool{},
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Run is the fleet's event loop. It exits when ctx is cancelled: every live
// session is merged into a partial report (delivered with
// trace.ErrInterrupted), every worker is sent shutdown, and further
// Start/Cancel calls fail with errFleetClosed.
func (f *Fleet) Run(ctx context.Context) {
	defer close(f.done)
	ticker := time.NewTicker(f.lv.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			f.interruptAll()
			f.shutdown()
			f.publishStats()
			return
		case fn := <-f.ctl:
			fn()
		case ev := <-f.events:
			f.handle(ev)
		case now := <-ticker.C:
			f.checkLiveness(now)
		}
		f.assign()
		f.publishStats()
	}
}

// event feeds one flight-recorder event to the registered event log.
func (f *Fleet) event(job, kind, detail string) {
	if f.onEvent != nil {
		f.onEvent(job, kind, detail)
	}
}

// checkLiveness is the failure detector, run every heartbeat tick: a worker
// holding an expired lease or silent past the miss window is retired exactly
// like a dead one (dropWorker re-leases its subtrees), and a worker merely
// quiet for one interval is pinged. Retirement cannot corrupt a report —
// outcomes are pure functions of their lease, so the worst a false positive
// costs is a recomputed subtree.
func (f *Fleet) checkLiveness(now time.Time) {
	miss := f.lv.missWindow()
	for w := range f.workers {
		expired := false
		for _, dl := range w.deadlines {
			if now.After(dl) {
				expired = true
				break
			}
		}
		if expired || now.Sub(w.lastSeen) > miss {
			f.dropWorker(w)
			continue
		}
		if now.Sub(w.lastSeen) >= f.lv.HeartbeatEvery {
			f.obs.Miss()
			if err := w.c.Send(&wire.Msg{Kind: wire.KindPing}); err != nil {
				f.dropWorker(w)
			}
		}
	}
}

// do injects fn into the loop; false means the fleet already stopped.
func (f *Fleet) do(fn func()) bool {
	select {
	case f.ctl <- fn:
		return true
	case <-f.done:
		return false
	}
}

// post delivers a worker event; false means the fleet already stopped.
func (f *Fleet) post(e event) bool {
	select {
	case f.events <- e:
		return true
	case <-f.done:
		return false
	}
}

// Start plans and registers one job session. Resolution and planning happen
// synchronously so an unresolvable job fails fast, before anything is leased.
// The returned channel delivers the job's SessionResult exactly once.
func (f *Fleet) Start(id string, job wire.Job) (<-chan SessionResult, error) {
	return f.start(id, job, nil)
}

// Resume is Start continuing from a Progress snapshot: the completed
// outcomes it carries are replayed through the wave machinery before
// anything is leased, so only the unfinished frontier goes back out to
// workers. The frontier is re-planned from the job itself (planning is
// deterministic), and a snapshot that does not match the plan — a different
// binary or changed options — is discarded rather than merged: the job
// silently restarts from scratch, which is always correct. A snapshot that
// already covers the whole search completes immediately without leasing
// anything.
func (f *Fleet) Resume(id string, job wire.Job, p *Progress) (<-chan SessionResult, error) {
	return f.start(id, job, p)
}

func (f *Fleet) start(id string, job wire.Job, p *Progress) (<-chan SessionResult, error) {
	if id == "" {
		return nil, fmt.Errorf("dist: job needs a non-empty id")
	}
	job.ID = id
	nprocs, factory, err := f.resolve(job)
	if err != nil {
		return nil, err
	}
	frontier, width, err := trace.SubtreePlan(nprocs, factory, job.Opts)
	if err != nil {
		return nil, err
	}
	s := newSession(id, job, frontier, width)
	complete := false
	if p != nil && p.Frontier == len(frontier) && len(p.Outcomes) == len(frontier) {
		complete = s.restore(p.Outcomes)
	}
	errc := make(chan error, 1)
	ok := f.do(func() {
		if _, dup := f.sessions[id]; dup {
			errc <- fmt.Errorf("dist: job id %q already active", id)
			return
		}
		f.sessions[id] = s
		f.order = append(f.order, s)
		f.event(id, "start", fmt.Sprintf("%s n=%d: %d subtrees planned", job.Protocol, job.Params.N, len(frontier)))
		if s.resumed > 0 {
			f.event(id, "resume", fmt.Sprintf("%d of %d subtrees restored from snapshot", s.resumed, len(frontier)))
		}
		if complete {
			rep, err := s.Merge(false)
			f.finish(s, SessionResult{ID: id, Report: rep, Err: err, Resumed: s.resumed})
		}
		errc <- nil
	})
	if !ok {
		return nil, errFleetClosed
	}
	if err := <-errc; err != nil {
		return nil, err
	}
	return s.result, nil
}

// Cancel ends one active job: its result channel delivers ErrCanceled, its
// leases are reclaimed, and every worker that knew it is told to retire it.
func (f *Fleet) Cancel(id string) error {
	errc := make(chan error, 1)
	ok := f.do(func() {
		s := f.sessions[id]
		if s == nil {
			errc <- fmt.Errorf("dist: no active job %q", id)
			return
		}
		f.finish(s, SessionResult{ID: id, Err: ErrCanceled})
		errc <- nil
	})
	if !ok {
		return errFleetClosed
	}
	return <-errc
}

// Stats snapshots the fleet without entering the loop.
func (f *Fleet) Stats() FleetStats {
	return FleetStats{
		Workers: int(f.statWorkers.Load()),
		Slots:   int(f.statSlots.Load()),
	}
}

func (f *Fleet) publishStats() {
	var slots, inflight, pending int64
	for w := range f.workers {
		slots += int64(w.slots)
		inflight += int64(w.inflight)
	}
	for _, s := range f.order {
		pending += int64(len(s.pending))
	}
	f.statWorkers.Store(int64(len(f.workers)))
	f.statSlots.Store(slots)
	f.obs.mirrorStats(int64(len(f.workers)), slots, inflight, int64(len(f.order)), pending)
}

// handle applies one worker event to the loop state. Every frame from a
// worker — result, fail, or pong — refreshes its liveness clock.
func (f *Fleet) handle(ev event) {
	if ev.from != nil {
		ev.from.lastSeen = time.Now()
	}
	switch {
	case ev.join != nil:
		ev.join.lastSeen = time.Now()
		f.workers[ev.join] = true
		f.obs.Join()
	case ev.dead != nil:
		f.dropWorker(ev.dead)
	case ev.fail != nil:
		f.onFail(ev.from, ev.fail)
	case ev.res != nil:
		f.onResult(ev.from, ev.res)
	case ev.pong:
		// lastSeen refresh above is the whole point.
	}
}

// finish delivers a session's result exactly once, unregisters it, reclaims
// its outstanding leases, and retires it on every worker that knew it.
func (f *Fleet) finish(s *session, r SessionResult) {
	if s.finished {
		return
	}
	s.finished = true
	switch {
	case r.Err != nil:
		f.event(s.id, "finish", r.Err.Error())
	case r.Report != nil:
		f.event(s.id, "finish", fmt.Sprintf("%d runs, %d violations", r.Report.Runs, len(r.Report.Violations)))
	}
	s.result <- r
	delete(f.sessions, s.id)
	for i, o := range f.order {
		if o == s {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	for w := range f.workers {
		for k := range w.keys {
			if k.job == s.id {
				w.release(k)
			}
		}
		if w.jobs[s.id] {
			delete(w.jobs, s.id)
			delete(w.cursors, s.id)
			// A send failure here surfaces as a read error on the worker's
			// handler goroutine moments later; no need to double-report.
			w.c.Send(&wire.Msg{Kind: wire.KindRetire, Retire: &wire.Retire{Job: s.id}})
		}
	}
}

// dropWorker forgets a dead worker and requeues its outstanding subtrees;
// completed outcomes it already delivered stay valid (results are pure
// functions of the lease, so a re-computed subtree is identical).
func (f *Fleet) dropWorker(w *workerConn) {
	if !f.workers[w] {
		return
	}
	delete(f.workers, w)
	w.raw.Close()
	f.obs.Death()
	for k := range w.keys {
		if s := f.sessions[k.job]; s != nil && s.assigned[k.id] == w {
			delete(s.assigned, k.id)
			s.requeueIfOpen(k.id)
			f.obs.Requeue()
			f.event(k.job, "re-lease", fmt.Sprintf("subtree %d requeued: worker %s died", k.id, w.raw.RemoteAddr()))
		}
	}
	w.keys = map[leaseKey]bool{}
	w.deadlines = map[leaseKey]time.Time{}
	w.inflight = 0
	for _, s := range f.sessions {
		delete(s.failed, w)
	}
}

// onFail handles a worker's job-scoped failure: the worker could not resolve
// or run this job (registry or capability skew) but keeps serving others. Its
// outstanding leases of the job are reclaimed; if every connected worker has
// now failed the job, the job itself fails loudly instead of waiting forever
// for a worker that can run it. A fail without a job id is a fatal worker
// error and drops the connection.
func (f *Fleet) onFail(w *workerConn, fail *wire.Fail) {
	if fail.Job == "" {
		f.dropWorker(w)
		return
	}
	s := f.sessions[fail.Job]
	if s == nil {
		return // job already finished or cancelled
	}
	s.failed[w] = true
	for k := range w.keys {
		if k.job != s.id {
			continue
		}
		w.release(k)
		if s.assigned[k.id] == w {
			delete(s.assigned, k.id)
			s.requeueIfOpen(k.id)
			f.obs.Requeue()
			f.event(k.job, "re-lease", fmt.Sprintf("subtree %d requeued: worker %s rejected the job", k.id, w.raw.RemoteAddr()))
		}
	}
	eligible := 0
	for w2 := range f.workers {
		if !s.failed[w2] {
			eligible++
		}
	}
	if eligible == 0 && len(f.workers) > 0 {
		f.finish(s, SessionResult{ID: s.id,
			Err: fmt.Errorf("dist: every worker rejected job %s: %s", s.id, fail.Err)})
	}
}

// onResult records one subtree outcome. The lease key is released first (the
// guard against double-release when a fail or cancel raced the result); the
// outcome is then credited to its session if it still runs. A Stopped outcome
// is a worker abandoning the lease (its local interrupt fired) — never
// merged, only re-leased.
func (f *Fleet) onResult(w *workerConn, res *wire.Result) {
	k := leaseKey{res.Job, res.ID}
	if f.workers[w] && w.keys[k] {
		w.release(k)
	}
	s := f.sessions[res.Job]
	if s == nil {
		return
	}
	if s.assigned[k.id] == w {
		delete(s.assigned, k.id)
		if res.Outcome.Stopped {
			s.requeueIfOpen(k.id)
			f.obs.Requeue()
			f.event(s.id, "re-lease", fmt.Sprintf("subtree %d requeued: worker abandoned it", k.id))
		}
	}
	if res.Outcome.Stopped {
		return
	}
	f.obs.Completed()
	complete, crossed := s.onOutcome(res.ID, res.Outcome)
	if complete {
		rep, err := s.Merge(false)
		f.finish(s, SessionResult{ID: s.id, Report: rep, Err: err, Resumed: s.resumed})
		return
	}
	if crossed {
		lo, _ := s.Window()
		f.obs.Wave()
		f.event(s.id, "wave", fmt.Sprintf("barrier crossed: wave window now starts at subtree %d of %d", lo, len(s.Frontier())))
		// A wave barrier just passed: publish the resumable snapshot. (The
		// final barrier is covered by the finish above — a completed job
		// needs none.)
		if f.onProgress != nil {
			f.onProgress(s.id, s.progress())
		}
	}
}

// assign hands out pending subtrees, one lease per session per pass, so
// concurrent jobs share the fleet fairly instead of the first-registered job
// starving the rest. A session that gets a lease moves to the back of the
// ring: when slots free one at a time, each pass starts with the session
// served longest ago.
func (f *Fleet) assign() {
	for progress := true; progress; {
		progress = false
		// f.order may shrink mid-pass (a send failure drops a worker, which
		// can finish a session); iterate over a snapshot.
		ring := append([]*session(nil), f.order...)
		for _, s := range ring {
			if s.finished {
				continue
			}
			if f.assignOne(s) {
				progress = true
				if i := slices.Index(f.order, s); i >= 0 {
					f.order = append(slices.Delete(f.order, i, i+1), s)
				}
			}
		}
	}
}

// assignOne leases at most one subtree of s to a free worker, announcing the
// job first if this worker has not seen it. The lease ships the session's
// join-log delta since the worker's per-job cursor, bringing its mirror
// exactly to the table frozen at this wave's start.
func (f *Fleet) assignOne(s *session) bool {
	for len(s.pending) > 0 {
		id := s.pending[0]
		if !s.Open(id) {
			s.pending = s.pending[1:]
			continue
		}
		var w *workerConn
		for ww := range f.workers {
			if !s.failed[ww] && ww.inflight < ww.slots {
				w = ww
				break
			}
		}
		if w == nil {
			return false
		}
		if !w.jobs[s.id] {
			jb := s.job
			if err := w.c.Send(&wire.Msg{Kind: wire.KindJob, Job: &jb}); err != nil {
				f.dropWorker(w)
				continue
			}
			w.jobs[s.id] = true
			w.cursors[s.id] = 0
		}
		lease := &wire.Lease{
			Job:   s.id,
			ID:    id,
			Root:  s.Frontier()[id],
			Table: s.Log()[w.cursors[s.id]:],
		}
		lease.Base, lease.ViolBase = s.Base(id)
		if err := w.c.Send(&wire.Msg{Kind: wire.KindLease, Lease: lease}); err != nil {
			f.dropWorker(w)
			continue
		}
		f.obs.Lease()
		f.event(s.id, "lease", fmt.Sprintf("subtree %d -> worker %s (base %d, %d violations, %d table entries)",
			id, w.raw.RemoteAddr(), lease.Base, lease.ViolBase, len(lease.Table)))
		w.cursors[s.id] = len(s.Log())
		w.inflight++
		k := leaseKey{s.id, id}
		w.keys[k] = true
		w.deadlines[k] = time.Now().Add(f.lv.leaseTimeout(s.job.Opts))
		s.assigned[id] = w
		s.pending = s.pending[1:]
		return true
	}
	return false
}

// interruptAll merges every live session into its partial report, exactly as
// the in-process explorer reports an interrupt, attaching each session's
// resumable snapshot so the caller can continue it later with Resume.
func (f *Fleet) interruptAll() {
	for _, s := range append([]*session(nil), f.order...) {
		rep, err := s.Merge(true)
		f.finish(s, SessionResult{ID: s.id, Report: rep, Err: err,
			Resumed: s.resumed, Progress: s.progress()})
	}
}

// shutdown releases every worker.
func (f *Fleet) shutdown() {
	for w := range f.workers {
		w.c.Send(&wire.Msg{Kind: wire.KindShutdown})
		w.raw.Close()
		delete(f.workers, w)
	}
}

// Worker runs the coordinator side of one worker connection whose hello was
// already read: version gate (a mismatched peer gets an explicit reject
// message, not a silent close), registration, then the read loop posting
// results and failures into the fleet. Blocks until the connection dies or
// the fleet stops; callers run it on its own goroutine.
func (f *Fleet) Worker(raw net.Conn, c *wire.Conn, hello *wire.Hello) {
	if hello == nil || hello.Version != wire.Version {
		got := 0
		if hello != nil {
			got = hello.Version
		}
		c.Send(&wire.Msg{Kind: wire.KindReject, Reject: &wire.Reject{
			Got:  got,
			Want: wire.Version,
			Err: fmt.Sprintf("wire protocol version %d not supported, this coordinator requires %d; update the peer binary",
				got, wire.Version),
		}})
		raw.Close()
		return
	}
	// Frame sends to this worker are deadline-bounded so a peer that stops
	// draining its socket cannot wedge the fleet loop mid-Send; reads need no
	// deadline here — checkLiveness closes the connection of a silent worker,
	// which unblocks this loop's Recv.
	c.SetTimeouts(0, f.lv.WriteTimeout)
	c.SetObserver(f.obs.Observer())
	w := &workerConn{
		c:         c,
		raw:       raw,
		slots:     max(hello.Slots, 1),
		jobs:      map[string]bool{},
		cursors:   map[string]int{},
		keys:      map[leaseKey]bool{},
		deadlines: map[leaseKey]time.Time{},
	}
	if !f.post(event{join: w}) {
		raw.Close()
		return
	}
	for {
		msg, err := c.Recv()
		if err != nil {
			f.post(event{dead: w})
			return
		}
		switch msg.Kind {
		case wire.KindPong:
			if !f.post(event{from: w, pong: true}) {
				return
			}
		case wire.KindResult:
			if msg.Result == nil || msg.Result.Outcome == nil {
				f.post(event{dead: w})
				return
			}
			if !f.post(event{from: w, res: msg.Result}) {
				return
			}
		case wire.KindFail:
			fail := msg.Fail
			if fail == nil {
				fail = &wire.Fail{Err: "unspecified worker failure"}
			}
			if !f.post(event{from: w, fail: fail}) {
				return
			}
		default:
			f.post(event{dead: w})
			return
		}
	}
}

// ServeWorkers accepts worker connections on ln until it closes. Connections
// whose first frame is not a hello are dropped (clients belong on the
// daemon's listener, which splits the two conversations itself), and the
// hello must arrive within the liveness handshake deadline — a dial that
// never speaks cannot pin its accept goroutine forever.
func (f *Fleet) ServeWorkers(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			c := wire.NewConn(conn)
			conn.SetReadDeadline(time.Now().Add(f.lv.Handshake))
			msg, err := c.Recv()
			if err != nil || msg.Kind != wire.KindHello {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			f.Worker(conn, c, msg.Hello)
		}()
	}
}
