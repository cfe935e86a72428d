// Package jobd is the long-running checking daemon: a durable job queue in
// front of one shared dist.Fleet. Clients submit checks over the same framed
// wire protocol workers speak (the first frame tells them apart — workers
// open with hello), poll status, fetch merged reports and witness artifacts,
// cancel, and list; the daemon validates every submission at the door,
// journals the queue to disk so queued and running jobs survive a restart
// (running jobs resume from their journaled wave-barrier snapshots, each
// barrier journaled as a delta of the outcomes it added — only the
// unfinished frontier is re-leased, and determinism makes the resumed
// report identical), drains running jobs into resumable partial reports on
// graceful shutdown, and can grow or shrink a fleet of locally spawned
// workers from lease throughput and queue depth.
//
// Robustness contracts:
//
//   - Acked implies durable: a submit ack carrying a job id is not sent until
//     the record is fsynced — immediately under SyncEachPut, at the batch
//     commit under SyncBatch (the ack is deferred, not the durability).
//   - Advisory progress: wave-barrier snapshots are journaled as deltas
//     without an inline fsync and become durable within SyncPolicy.BatchDelay
//     under every sync mode but SyncNever. A power cut loses at most that
//     window of snapshots, which costs re-running waves — never an acked
//     submission or a synced state transition.
//   - Bounded admission: at most MaxQueued jobs wait for a slot; past it,
//     submissions get a deterministic rejection marked Retryable, which
//     Client.SubmitRetry turns into jittered backoff. The journal therefore
//     cannot grow without bound under a submit flood.
//   - Fair-share dispatch: freed slots go to sessions by weighted fair share
//     (see Queue.NextDispatch), so one flooding client cannot starve others.
//
// Determinism carries through unchanged: each job runs as its own fleet
// session with private waves, mirrors and budget bases, so a job's merged
// report is byte-identical to a single-process Check no matter how many jobs
// shared the fleet or how workers came and went.
package jobd

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync/atomic"
	"time"

	"revisionist/internal/dist"
	"revisionist/internal/dist/wire"
	"revisionist/internal/jobd/crashfs"
	"revisionist/internal/obs"
	"revisionist/internal/protocol"
	"revisionist/internal/trace"
)

// Config parameterizes a Daemon.
type Config struct {
	// Dir is the queue journal directory ("" = in-memory only: the queue
	// dies with the process).
	Dir string
	// MaxActive bounds concurrently running jobs (default 2). Queued jobs
	// beyond it wait their turn in fair-share order.
	MaxActive int
	// MaxQueued bounds jobs waiting for a slot (default 1024; negative =
	// unbounded). A submission past the bound is rejected with a
	// deterministic, Retryable-classified ack instead of being admitted —
	// overload degrades to client backoff, not to an unbounded journal.
	MaxQueued int
	// Sync is the journal's durability discipline (zero value = fsync per
	// Put). SyncBatch keeps acked-implies-durable by deferring submit acks
	// to the group commit.
	Sync SyncPolicy
	// FS is the filesystem the journal writes through (nil = the real one).
	// Crash-injection tests mount a crashfs.Mem here.
	FS crashfs.FS
	// Resolve builds exploration inputs from a wire job (required; typically
	// harness.Resolve).
	Resolve dist.Resolver
	// Validate normalizes and admission-checks a submission (typically
	// harness.ValidateJob). nil accepts jobs verbatim.
	Validate func(wire.Job) (wire.Job, error)
	// Scale, when non-nil, enables adaptive fleet scaling; Spawn must then
	// start one local worker connected to this daemon and return its stop
	// function.
	Scale *ScalePolicy
	Spawn func() (stop func(), err error)
	// Liveness is the fleet's failure-detection policy (zero fields keep
	// the dist defaults: heartbeats every 2s, 3 misses, budget-derived
	// lease deadlines).
	Liveness dist.Liveness
	// CompactAt overrides the journal's online-compaction threshold in
	// bytes (0 keeps the queue default of 1 MiB).
	CompactAt int64
	// Logf receives operational one-liners (nil = silent). The older of the
	// two logging seams; when nil and Logger is set, a component-tagged
	// adapter over Logger takes its place.
	Logf func(format string, args ...any)
	// Logger is the structured logging seam: operational one-liners go out
	// at info level with component=jobd. Logf, when set, takes precedence
	// (tests pin its exact lines).
	Logger *slog.Logger
	// Registry receives the daemon's metric series — queue depth, journal
	// and group-commit shape, admission rejections, plus the shared fleet's
	// dist_* series (nil = no metrics). The registry is a pure side channel:
	// reports are byte-identical with or without it.
	Registry *obs.Registry
	// Flight overrides the per-job flight recorder (nil = a default-bounded
	// one). Tests inject a deterministic clock here.
	Flight *obs.Flight
}

// defaultMaxQueued bounds the backlog when Config.MaxQueued is zero.
const defaultMaxQueued = 1024

// Daemon is the checking daemon. All queue and lifecycle state is owned by
// the single Run goroutine; client handlers and session watchers inject
// closures over the actions channel, mirroring the fleet's own loop
// discipline.
type Daemon struct {
	cfg      Config
	fleet    *dist.Fleet
	queue    *Queue
	scale    *ScalePolicy
	obs      *QueueObs
	flight   *obs.Flight
	actions  chan func()
	done     chan struct{}
	nextSess atomic.Int64

	// loop-owned.
	draining  bool
	active    map[string]bool
	spawned   []func()
	prevStats dist.FleetStats
	// pending are admitted submissions whose acks wait for the group commit;
	// flushTimer/flushC bound how long they wait (SyncPolicy.BatchDelay).
	pending    []pendingAck
	flushTimer *time.Timer
	flushC     <-chan time.Time
}

// pendingAck is one submission admitted under SyncBatch: the ack is filled
// in, but done stays open until the record's batch is durably committed.
type pendingAck struct {
	ack  *wire.Ack
	done chan struct{}
}

// New opens the queue (applying restart recovery) and builds the daemon.
// Call Run to start it.
func New(cfg Config) (*Daemon, error) {
	if cfg.Resolve == nil {
		return nil, errors.New("jobd: Config.Resolve is required")
	}
	if cfg.Logf == nil && cfg.Logger != nil {
		cfg.Logf = obs.Logf(cfg.Logger, "jobd", slog.LevelInfo)
	}
	qobs := NewQueueObs(cfg.Registry)
	qopts := []QueueOption{WithSyncPolicy(cfg.Sync), WithQueueLog(cfg.Logf), WithQueueObs(qobs)}
	if cfg.FS != nil {
		qopts = append(qopts, WithFS(cfg.FS))
	}
	q, err := OpenQueue(cfg.Dir, qopts...)
	if err != nil {
		return nil, err
	}
	if cfg.CompactAt > 0 {
		q.CompactAt = cfg.CompactAt
	}
	flight := cfg.Flight
	if flight == nil {
		flight = obs.NewFlight(0, 0, nil)
	}
	d := &Daemon{
		cfg:     cfg,
		queue:   q,
		obs:     qobs,
		flight:  flight,
		actions: make(chan func()),
		done:    make(chan struct{}),
		active:  map[string]bool{},
	}
	d.fleet = dist.NewFleet(cfg.Resolve,
		dist.WithLiveness(cfg.Liveness),
		dist.WithProgress(d.onProgress),
		dist.WithObs(dist.NewFleetObs(cfg.Registry)),
		dist.WithEventLog(d.flight.Log))
	if cfg.Scale != nil {
		pol := cfg.Scale.withDefaults()
		d.scale = &pol
	}
	return d, nil
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

func (d *Daemon) maxQueued() int {
	switch {
	case d.cfg.MaxQueued > 0:
		return d.cfg.MaxQueued
	case d.cfg.MaxQueued < 0:
		return 0 // unbounded
	default:
		return defaultMaxQueued
	}
}

// Run is the daemon's main loop; it returns after a graceful shutdown. When
// ctx is cancelled the daemon stops admitting and dispatching, interrupts the
// fleet — every running session merges what it has into a partial report —
// records those jobs as interrupted and resumable (a restart re-queues them),
// stops spawned workers, and persists the queue. A second, impatient signal
// is the caller's concern (cmd/checkd force-exits on it).
func (d *Daemon) Run(ctx context.Context) error {
	fctx, fcancel := context.WithCancel(context.Background())
	fleetDone := make(chan struct{})
	go func() { defer close(fleetDone); d.fleet.Run(fctx) }()
	var tick <-chan time.Time
	if d.scale != nil {
		ticker := time.NewTicker(d.scale.Interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	d.fill()
	for {
		select {
		case <-ctx.Done():
			d.draining = true
			d.logf("shutdown: draining %d running job(s)", len(d.active))
			d.flushAcks() // settle submissions admitted but not yet committed
			fcancel()
			for len(d.active) > 0 {
				fn := <-d.actions
				fn()
			}
			d.flushAcks()
			<-fleetDone
			for _, stop := range d.spawned {
				stop()
			}
			close(d.done)
			return d.queue.Close()
		case fn := <-d.actions:
			fn()
			d.fill()
			d.afterAction()
		case <-d.flushC:
			d.flushTimer, d.flushC = nil, nil
			d.flushAcks()
		case <-tick:
			d.autoscale()
		}
	}
}

// afterAction maintains the group commit after every loop action: settle
// pending acks the moment their records are already durable (a compaction
// syncs everything as a side effect), commit a full batch at once, and
// otherwise make sure a timer bounds how long any dirty append — an ack or a
// progress delta — stays volatile. Every mode but SyncNever arms the timer:
// under SyncEachPut the only unsynced appends are progress deltas.
func (d *Daemon) afterAction() {
	p := d.queue.Policy()
	if p.Mode == SyncNever {
		return
	}
	if len(d.pending) > 0 && (d.queue.Dirty() == 0 || len(d.pending) >= p.BatchPuts) {
		d.flushAcks()
		return
	}
	if (d.queue.Dirty() > 0 || len(d.pending) > 0) && d.flushC == nil {
		d.flushTimer = time.NewTimer(p.BatchDelay)
		d.flushC = d.flushTimer.C
	}
}

// flushAcks is the group commit: one fsync covers every pending submission,
// then all their acks are released. A sync failure is terminal for the whole
// batch — the records' durability cannot be promised, so no ids are handed
// out.
func (d *Daemon) flushAcks() {
	if d.flushTimer != nil {
		d.flushTimer.Stop()
		d.flushTimer, d.flushC = nil, nil
	}
	err := d.queue.Flush()
	if err != nil {
		d.logf("journal: group commit failed: %v", err)
	}
	for _, p := range d.pending {
		if err != nil {
			p.ack.ID = ""
			p.ack.Err = err.Error()
			p.ack.Retryable = false
		}
		close(p.done)
	}
	d.pending = nil
}

// act injects fn into the loop; false means the daemon already stopped.
func (d *Daemon) act(fn func()) bool {
	select {
	case d.actions <- fn:
		return true
	case <-d.done:
		return false
	}
}

// call injects fn and waits for it to run.
func (d *Daemon) call(fn func()) bool {
	ran := make(chan struct{})
	if !d.act(func() { defer close(ran); fn() }) {
		return false
	}
	<-ran
	return true
}

// fill starts queued jobs while running slots are free, in the queue's
// weighted fair-share dispatch order.
func (d *Daemon) fill() {
	if d.draining {
		return
	}
	maxActive := d.cfg.MaxActive
	if maxActive <= 0 {
		maxActive = 2
	}
	for len(d.active) < maxActive {
		rec := d.queue.NextDispatch()
		if rec == nil {
			return
		}
		// A record carrying a progress snapshot (re-queued after a restart or
		// drain) resumes: completed outcomes are restored before anything is
		// leased, so only the unfinished frontier goes back to workers.
		var ch <-chan dist.SessionResult
		var err error
		if rec.Progress != nil {
			ch, err = d.fleet.Resume(rec.ID, rec.Job, rec.Progress)
		} else {
			ch, err = d.fleet.Start(rec.ID, rec.Job)
		}
		if err != nil {
			rec.State = StateFailed
			rec.Err = err.Error()
			rec.Progress = nil
			d.queue.Put(rec)
			d.logf("job %s: failed to start: %v", rec.ID, err)
			continue
		}
		if rec.Progress != nil {
			d.logf("job %s: resuming (%d/%d subtrees restored)",
				rec.ID, rec.Progress.Completed(), rec.Progress.Frontier)
		}
		rec.State = StateRunning
		d.queue.Put(rec)
		d.active[rec.ID] = true
		d.logf("job %s: running (%s %+v)", rec.ID, rec.Job.Protocol, rec.Job.Params)
		go func(id string, ch <-chan dist.SessionResult) {
			r := <-ch
			d.act(func() { d.complete(id, r) })
		}(rec.ID, ch)
	}
}

// complete records a finished session's terminal state. Progress snapshots
// are kept only on interrupt — the one state a restart resumes; every other
// terminal state drops them so finished jobs stop carrying outcome payloads
// through the journal.
func (d *Daemon) complete(id string, r dist.SessionResult) {
	delete(d.active, id)
	rec := d.queue.Get(id)
	if rec == nil {
		return
	}
	rec.Progress = nil
	switch {
	case errors.Is(r.Err, dist.ErrCanceled):
		rec.State = StateCanceled
	case errors.Is(r.Err, trace.ErrInterrupted):
		// Shutdown caught it mid-search: keep the partial report and the
		// final progress snapshot (it includes outcomes from the unfinished
		// wave, fresher than any barrier snapshot), and mark it resumable —
		// restart recovery re-queues it to resume from that snapshot.
		rec.State = StateInterrupted
		rec.Resumable = true
		rec.Progress = r.Progress
		d.attachReport(rec, r.Report)
	case r.Err != nil:
		rec.State = StateFailed
		rec.Err = r.Err.Error()
	default:
		rec.State = StateDone
		d.attachReport(rec, r.Report)
	}
	d.queue.Put(rec)
	if r.Resumed > 0 {
		d.flight.Log(id, string(rec.State), fmt.Sprintf("%d subtrees resumed, not re-run", r.Resumed))
		d.logf("job %s: %s (%d subtrees resumed, not re-run)", id, rec.State, r.Resumed)
	} else {
		d.flight.Log(id, string(rec.State), rec.Err)
		d.logf("job %s: %s", id, rec.State)
	}
}

// onProgress journals a running job's wave-barrier snapshot as a delta of
// the outcomes it adds (Queue.PutProgress), made durable by the group-commit
// timer rather than inline. Called from the fleet loop, so it must not act
// synchronously — the daemon loop may itself be blocked on a fleet call —
// and hops onto the daemon loop asynchronously instead. Snapshots can
// therefore arrive out of order or after the job finished; the Wave
// monotonicity check (within one frontier) and the running-state guard drop
// the stale ones.
func (d *Daemon) onProgress(id string, p *dist.Progress) {
	go d.act(func() {
		rec := d.queue.Get(id)
		if rec == nil || rec.State != StateRunning {
			return
		}
		if old := rec.Progress; old != nil && old.Frontier == p.Frontier && old.Wave >= p.Wave {
			return
		}
		d.queue.PutProgress(id, p)
	})
}

// attachReport stores the merged report and, when it found violations, the
// replayable witness artifact (same document modelcheck -witness writes).
func (d *Daemon) attachReport(rec *Record, rep *trace.ExploreReport) {
	if rep == nil {
		return
	}
	rec.Report = wire.ReportOf(rep)
	if len(rep.Violations) > 0 {
		rec.Witness = wire.WitnessOf(rec.Job.Protocol, rec.Job.Params,
			rec.Job.Opts.Engine, rec.Job.Opts.MaxDepth, rep.Violations)
	}
}

// autoscale consumes one policy sample and applies its decision.
func (d *Daemon) autoscale() {
	cur := d.fleet.Stats()
	dec := d.scale.Decide(d.prevStats, cur, d.queue.QueuedDepth(), len(d.spawned))
	d.prevStats = cur
	switch dec {
	case Grow:
		if d.cfg.Spawn == nil {
			return
		}
		stop, err := d.cfg.Spawn()
		if err != nil {
			d.logf("scale: spawn failed: %v", err)
			return
		}
		d.spawned = append(d.spawned, stop)
		d.logf("scale: grow to %d spawned worker(s)", len(d.spawned))
	case Shrink:
		n := len(d.spawned)
		if n == 0 {
			return
		}
		stop := d.spawned[n-1]
		d.spawned = d.spawned[:n-1]
		stop()
		d.logf("scale: shrink to %d spawned worker(s)", n-1)
	}
}

// Stats snapshots the shared fleet.
func (d *Daemon) Stats() dist.FleetStats { return d.fleet.Stats() }

// Submit validates and queues one job as an anonymous session. See
// SubmitFrom for the full contract.
func (d *Daemon) Submit(job wire.Job) *wire.Ack {
	return d.SubmitFrom("", job)
}

// SubmitFrom validates and queues one job on behalf of session sess,
// returning the ack a client gets: the assigned id, or the errors that
// rejected it. Ack.Retryable classifies rejections — queue-full and
// shutting-down are transient (back off and resubmit); validation and
// journal failures are terminal. The call does not return a job id until the
// record is durable: under SyncBatch it blocks until the group commit that
// covers the record, so an acked submission survives a power cut in every
// sync mode but SyncNever.
func (d *Daemon) SubmitFrom(sess string, job wire.Job) *wire.Ack {
	if d.cfg.Validate != nil {
		norm, err := d.cfg.Validate(job)
		if err != nil {
			ack := &wire.Ack{Err: err.Error()}
			var ve *protocol.ValidationError
			if errors.As(err, &ve) {
				ack.Fields = ve.Fields
			}
			return ack
		}
		job = norm
	}
	job.Opts.Interrupted = nil // local closures never cross into sessions
	job.Opts.Obs = nil         // instrumentation stays caller-side too
	ack := &wire.Ack{}
	committed := make(chan struct{})
	if !d.act(func() { d.admit(sess, job, ack, committed) }) {
		ack.Err = "daemon stopped"
		ack.Retryable = true
		return ack
	}
	// The loop settles every pending ack before it exits, so this cannot
	// block past shutdown.
	<-committed
	return ack
}

// admit runs in the loop: bounded admission, journal append, and — under
// SyncBatch — deferral of the ack to the group commit.
func (d *Daemon) admit(sess string, job wire.Job, ack *wire.Ack, committed chan struct{}) {
	if d.draining {
		d.obs.Rejected()
		ack.Err = "daemon is shutting down"
		ack.Retryable = true
		close(committed)
		return
	}
	if maxQ := d.maxQueued(); maxQ > 0 && d.queue.QueuedDepth() >= maxQ {
		d.obs.Rejected()
		ack.Err = fmt.Sprintf("queue full: %d jobs queued (bound %d); retry later",
			d.queue.QueuedDepth(), maxQ)
		ack.Retryable = true
		close(committed)
		return
	}
	id := d.queue.NextID()
	job.ID = id
	if err := d.queue.Put(&Record{ID: id, Job: job, State: StateQueued, Session: sess}); err != nil {
		ack.Err = err.Error() // journal failure: terminal, nothing to retry into
		close(committed)
		return
	}
	ack.ID = id
	d.flight.Log(id, "queued", fmt.Sprintf("%s %+v", job.Protocol, job.Params))
	d.logf("job %s: queued (%s %+v)", id, job.Protocol, job.Params)
	if d.queue.Policy().Mode == SyncBatch && d.queue.Dirty() > 0 {
		// Durable only at the batch commit: hold the ack until then.
		d.pending = append(d.pending, pendingAck{ack: ack, done: committed})
		return
	}
	close(committed)
}

// Status returns one job's state.
func (d *Daemon) Status(id string) (wire.JobInfo, error) {
	var info wire.JobInfo
	var err error
	ok := d.call(func() {
		rec := d.queue.Get(id)
		if rec == nil {
			err = fmt.Errorf("no such job %q", id)
			return
		}
		info = rec.Info()
	})
	if !ok {
		return info, errors.New("daemon stopped")
	}
	return info, err
}

// Cancel cancels a queued or running job.
func (d *Daemon) Cancel(id string) error {
	var err error
	ok := d.call(func() {
		rec := d.queue.Get(id)
		if rec == nil {
			err = fmt.Errorf("no such job %q", id)
			return
		}
		switch rec.State {
		case StateQueued:
			rec.State = StateCanceled
			rec.Progress = nil // a re-queued resumable job may carry one
			d.queue.Put(rec)
			d.flight.Log(id, "canceled", "was queued")
			d.logf("job %s: canceled (was queued)", id)
		case StateRunning:
			// The session's watcher records the canceled state when the
			// fleet delivers ErrCanceled.
			err = d.fleet.Cancel(id)
		default:
			err = fmt.Errorf("job %s already %s", id, rec.State)
		}
	})
	if !ok {
		return errors.New("daemon stopped")
	}
	return err
}

// Fetch returns one job's full artifact: state, normalized job, merged
// report and witness (the latter two only once the job finished).
func (d *Daemon) Fetch(id string) (*wire.JobReport, error) {
	var out *wire.JobReport
	var err error
	ok := d.call(func() {
		rec := d.queue.Get(id)
		if rec == nil {
			err = fmt.Errorf("no such job %q", id)
			return
		}
		out = &wire.JobReport{Info: rec.Info(), Job: rec.Job, Report: rec.Report, Witness: rec.Witness}
	})
	if !ok {
		return nil, errors.New("daemon stopped")
	}
	return out, err
}

// List returns every job in admission order.
func (d *Daemon) List() ([]wire.JobInfo, error) {
	jobs, _, err := d.ListQueue()
	return jobs, err
}

// ListQueue returns every job in admission order plus the admission
// headroom snapshot: current queued depth against the MaxQueued bound
// (0 = unbounded).
func (d *Daemon) ListQueue() ([]wire.JobInfo, wire.QueueInfo, error) {
	var out []wire.JobInfo
	var q wire.QueueInfo
	ok := d.call(func() {
		out = d.queue.List()
		q = wire.QueueInfo{Queued: d.queue.QueuedDepth(), MaxQueued: d.maxQueued()}
	})
	if !ok {
		return nil, q, errors.New("daemon stopped")
	}
	return out, q, nil
}

// Trace returns one job's flight recording: its ring-buffered lifecycle
// events oldest first. A known job with no recorded events (submitted to an
// earlier incarnation — rings are memory-only) gets an empty recording; an
// unknown job is an error.
func (d *Daemon) Trace(id string) (*wire.Events, error) {
	events, dropped, ok := d.flight.Dump(id)
	if !ok {
		if _, err := d.Status(id); err != nil {
			return nil, err
		}
		return &wire.Events{Job: id}, nil
	}
	out := &wire.Events{Job: id, Dropped: dropped, Events: make([]wire.TraceEvent, len(events))}
	for i, e := range events {
		out.Events[i] = wire.TraceEvent{At: e.At, Kind: e.Kind, Detail: e.Detail}
	}
	return out, nil
}

// Ready reports whether the daemon is able to do useful work: its loop is
// running, it is not draining, and the journal is still appendable. The
// admin listener's /readyz answers from it.
func (d *Daemon) Ready() bool {
	ready := false
	ok := d.call(func() { ready = !d.draining && d.queue.Healthy() })
	return ok && ready
}

// Serve accepts connections on ln until it closes. The first frame routes
// each connection: a hello is a worker (handed to the fleet), anything else
// starts a client request loop — one listener serves both conversations.
func (d *Daemon) Serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go d.handle(conn)
	}
}

// clientIdleTimeout bounds the silence between client requests: a client
// that wanders off mid-conversation releases its handler goroutine instead
// of pinning it forever. Clients reconnect freely (Dial retries), so the
// generous bound costs nothing.
const clientIdleTimeout = 5 * time.Minute

func (d *Daemon) handle(conn net.Conn) {
	handshake := d.cfg.Liveness.Handshake
	if handshake <= 0 {
		handshake = 10 * time.Second
	}
	c := wire.NewConn(conn)
	// The first frame routes the connection and must arrive promptly: a dial
	// that never speaks (a hung peer, a port scanner) cannot pin this
	// goroutine past the handshake deadline.
	conn.SetReadDeadline(time.Now().Add(handshake))
	msg, err := c.Recv()
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if msg.Kind == wire.KindHello {
		d.fleet.Worker(conn, c, msg.Hello) // blocks for the connection's life
		return
	}
	defer conn.Close()
	c.SetTimeouts(clientIdleTimeout, 0)
	// Each client connection is one scheduling session: the fair-share
	// dispatcher balances across these ids.
	sess := fmt.Sprintf("s%03d", d.nextSess.Add(1))
	for {
		if err := d.serveClient(sess, c, msg); err != nil {
			return
		}
		if msg, err = c.Recv(); err != nil {
			return
		}
	}
}

// serveClient answers one client request frame.
func (d *Daemon) serveClient(sess string, c *wire.Conn, msg *wire.Msg) error {
	switch msg.Kind {
	case wire.KindSubmit:
		if msg.Submit == nil {
			return c.Send(&wire.Msg{Kind: wire.KindAck, Ack: &wire.Ack{Err: "empty submit"}})
		}
		return c.Send(&wire.Msg{Kind: wire.KindAck, Ack: d.SubmitFrom(sess, msg.Submit.Job)})
	case wire.KindStatus:
		if msg.Ref == nil {
			return c.Send(&wire.Msg{Kind: wire.KindAck, Ack: &wire.Ack{Err: "status needs a job id"}})
		}
		info, err := d.Status(msg.Ref.ID)
		if err != nil {
			return c.Send(&wire.Msg{Kind: wire.KindAck, Ack: &wire.Ack{Err: err.Error()}})
		}
		return c.Send(&wire.Msg{Kind: wire.KindInfo, Info: &info})
	case wire.KindCancel:
		if msg.Ref == nil {
			return c.Send(&wire.Msg{Kind: wire.KindAck, Ack: &wire.Ack{Err: "cancel needs a job id"}})
		}
		if err := d.Cancel(msg.Ref.ID); err != nil {
			return c.Send(&wire.Msg{Kind: wire.KindAck, Ack: &wire.Ack{Err: err.Error()}})
		}
		return c.Send(&wire.Msg{Kind: wire.KindAck, Ack: &wire.Ack{ID: msg.Ref.ID}})
	case wire.KindFetch:
		if msg.Ref == nil {
			return c.Send(&wire.Msg{Kind: wire.KindAck, Ack: &wire.Ack{Err: "fetch needs a job id"}})
		}
		rep, err := d.Fetch(msg.Ref.ID)
		if err != nil {
			return c.Send(&wire.Msg{Kind: wire.KindAck, Ack: &wire.Ack{Err: err.Error()}})
		}
		return c.Send(&wire.Msg{Kind: wire.KindReport, Report: rep})
	case wire.KindList:
		jobs, q, err := d.ListQueue()
		if err != nil {
			return c.Send(&wire.Msg{Kind: wire.KindAck, Ack: &wire.Ack{Err: err.Error()}})
		}
		return c.Send(&wire.Msg{Kind: wire.KindJobs, Jobs: jobs, Queue: &q})
	case wire.KindTrace:
		if msg.Ref == nil {
			return c.Send(&wire.Msg{Kind: wire.KindAck, Ack: &wire.Ack{Err: "trace needs a job id"}})
		}
		ev, err := d.Trace(msg.Ref.ID)
		if err != nil {
			return c.Send(&wire.Msg{Kind: wire.KindAck, Ack: &wire.Ack{Err: err.Error()}})
		}
		return c.Send(&wire.Msg{Kind: wire.KindEvents, Events: ev})
	default:
		c.Send(&wire.Msg{Kind: wire.KindAck, Ack: &wire.Ack{Err: fmt.Sprintf("unknown request %q", msg.Kind)}})
		return fmt.Errorf("jobd: unknown request %q", msg.Kind)
	}
}
