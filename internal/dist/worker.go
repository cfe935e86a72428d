package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"revisionist/internal/dist/wire"
	"revisionist/internal/trace"
)

// ErrRejected reports a coordinator that refused this worker's handshake
// (version skew). It is permanent for a given binary pair: reconnect loops
// must give up instead of retrying into the same rejection.
var ErrRejected = errors.New("dist: coordinator rejected this worker")

// workerJob is one announced job's local state on a worker: the resolved
// factory, the exploration options (Interrupted bound to the worker-wide and
// per-job stop flags), and the per-job mirror of that session's visited-state
// table. Mirrors are strictly per job — multiplexed jobs never see each
// other's closures, which is what keeps every job's report identical to its
// solo run.
type workerJob struct {
	nprocs  int
	factory trace.Factory
	opts    trace.ExploreOpts

	// bad marks a job this worker could not resolve (registry skew); its
	// leases, should any race in, are silently dropped — the coordinator
	// already reclaimed them on the fail message.
	bad bool

	// stopped aborts this job's in-flight subtrees (retire or run error).
	stopped atomic.Bool

	mu     sync.RWMutex
	mirror trace.StateTable
}

func (j *workerJob) frozen(fp uint64) (int, bool) {
	j.mu.RLock()
	defer j.mu.RUnlock()
	rem, ok := j.mirror[fp]
	return rem, ok
}

// task is one dispatched lease with its job's state resolved.
type task struct {
	lease wire.Lease
	js    *workerJob
}

// taskQueue is an unbounded FIFO between the read loop and the pool. The
// read loop must never block: the conversation is full-duplex on one
// connection, and with multiplexed jobs a cancelled job's already-queued
// leases can transiently push the backlog past the slot count — a bounded
// channel could then stall the read loop against a coordinator mid-send, a
// distributed deadlock. Depth stays bounded in practice by the coordinator's
// per-worker slot accounting plus retired stragglers.
type taskQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	tasks  []task
	closed bool
}

func newTaskQueue() *taskQueue {
	q := &taskQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *taskQueue) push(t task) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.tasks = append(q.tasks, t)
	q.cond.Signal()
}

// pop blocks for the next task; ok is false once the queue is closed and
// drained of nothing (close discards the backlog — it only happens when the
// session is over).
func (q *taskQueue) pop() (task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.tasks) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return task{}, false
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t, true
}

func (q *taskQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.tasks = nil
	q.cond.Broadcast()
}

// Work serves one coordinator fleet over conn: it announces slots lease
// capacity (0 selects GOMAXPROCS), resolves each announced job from the
// local registry, and runs leased subtrees concurrently on a pool of slots
// goroutines until the fleet shuts the connection down. The worker
// multiplexes any number of concurrent jobs: every lease, result and failure
// is job-tagged, each job prunes against its own mirror table, and a retire
// message drops a job's state and aborts its in-flight subtrees.
//
// Each lease's visited-state delta is applied to its job's mirror before the
// lease is dispatched — the read loop is sequential and the coordinator only
// ships a job's deltas at that job's wave barriers, so a running subtree
// always prunes against the table frozen at its wave start, exactly like an
// in-process worker.
//
// Work returns nil on an orderly shutdown, ctx.Err() if ctx ended the
// session, an explicit version-skew error if the coordinator rejected the
// handshake, and the transport error otherwise. A worker that dies
// mid-subtree (process kill, connection loss) needs no cleanup protocol:
// only complete outcomes are ever reported, and the coordinator re-leases
// whatever was outstanding.
func Work(ctx context.Context, conn net.Conn, slots int, resolve Resolver) error {
	return WorkCfg(ctx, conn, WorkConfig{Slots: slots}, resolve)
}

// WorkConfig tunes one worker connection beyond the slot count.
type WorkConfig struct {
	// Slots is the concurrent lease capacity (0 selects GOMAXPROCS).
	Slots int
	// IdleTimeout bounds the silence the worker tolerates from the
	// coordinator before declaring the link dead (default 5m). It is a
	// backstop, not a detector: a live coordinator pings silent workers
	// every few seconds, so only a wedged or partitioned coordinator ever
	// trips it.
	IdleTimeout time.Duration
	// WriteTimeout bounds each frame send (default 30s).
	WriteTimeout time.Duration
	// Obs, when non-nil, receives the search core's live counters for every
	// subtree this worker runs, across all multiplexed jobs. The field never
	// crosses the wire (lease options arrive with it nil); it is this
	// worker's local instrumentation seam, feeding `distcheck -connect
	// -progress` and in-process workers that share a daemon's registry.
	Obs *trace.SearchObs
}

func (cfg WorkConfig) withDefaults() WorkConfig {
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	return cfg
}

// WorkCfg is Work with explicit timeouts.
func WorkCfg(ctx context.Context, conn net.Conn, cfg WorkConfig, resolve Resolver) error {
	defer conn.Close()
	cfg = cfg.withDefaults()
	slots := cfg.Slots
	// stopping aborts all in-flight subtrees: once the session ends (shutdown,
	// connection loss, ctx cancellation), running DFS loops see it at their
	// next poll and bail out instead of exploring abandoned leases to the
	// bitter end. Their stopped outcomes are discarded, never reported.
	var stopping atomic.Bool
	if ctx != nil {
		stop := context.AfterFunc(ctx, func() {
			stopping.Store(true)
			conn.Close()
		})
		defer stop()
	}
	slots = trace.ResolveWorkers(slots)
	c := wire.NewConn(conn)
	c.SetTimeouts(cfg.IdleTimeout, cfg.WriteTimeout)
	if err := c.Send(&wire.Msg{Kind: wire.KindHello, Hello: &wire.Hello{Version: wire.Version, Slots: slots}}); err != nil {
		return fmt.Errorf("dist: hello: %w", err)
	}

	queue := newTaskQueue()
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t, ok := queue.pop()
				if !ok {
					return
				}
				if stopping.Load() {
					return
				}
				if t.js.stopped.Load() {
					continue // job retired while queued: drop the lease
				}
				outcome, err := trace.RunSubtree(t.js.nprocs, t.js.factory, t.js.opts, t.lease.Root, t.lease.Base, t.lease.ViolBase, t.js.frozen)
				if err != nil {
					// A run error is job-scoped capability skew: fail the job,
					// keep serving the others.
					t.js.stopped.Store(true)
					c.Send(&wire.Msg{Kind: wire.KindFail, Fail: &wire.Fail{Job: t.lease.Job, Err: err.Error()}})
					continue
				}
				if outcome.Stopped {
					if stopping.Load() {
						return // session over: incomplete, never reported
					}
					continue // job retired mid-run: discard
				}
				if err := c.Send(&wire.Msg{Kind: wire.KindResult,
					Result: &wire.Result{Job: t.lease.Job, ID: t.lease.ID, Outcome: outcome}}); err != nil {
					return
				}
			}
		}()
	}
	defer func() {
		stopping.Store(true)
		queue.close()
		wg.Wait()
	}()

	jobs := map[string]*workerJob{}
	for {
		msg, err := c.Recv()
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("dist: connection lost: %w", err)
		}
		switch msg.Kind {
		case wire.KindReject:
			if msg.Reject != nil && msg.Reject.Err != "" {
				return fmt.Errorf("%w: %s", ErrRejected, msg.Reject.Err)
			}
			return ErrRejected
		case wire.KindPing:
			// Answer from the read loop: a worker whose slots are all busy
			// computing still pongs, which is exactly the signal the
			// coordinator needs to tell "slow" from "wedged".
			if err := c.Send(&wire.Msg{Kind: wire.KindPong}); err != nil {
				return fmt.Errorf("dist: connection lost: %w", err)
			}
		case wire.KindJob:
			if msg.Job == nil || msg.Job.ID == "" {
				return fmt.Errorf("dist: malformed job announcement")
			}
			js := &workerJob{}
			job := *msg.Job
			nprocs, factory, err := resolve(job)
			if err != nil {
				js.bad = true
				js.stopped.Store(true)
				jobs[job.ID] = js
				c.Send(&wire.Msg{Kind: wire.KindFail, Fail: &wire.Fail{Job: job.ID, Err: err.Error()}})
				continue
			}
			js.nprocs = nprocs
			js.factory = factory
			js.opts = job.Opts
			js.opts.Interrupted = func() bool { return stopping.Load() || js.stopped.Load() }
			js.opts.Obs = cfg.Obs
			js.mirror = trace.StateTable{}
			jobs[job.ID] = js
		case wire.KindLease:
			if msg.Lease == nil {
				return fmt.Errorf("dist: empty lease")
			}
			js := jobs[msg.Lease.Job]
			if js == nil {
				return fmt.Errorf("dist: lease for unannounced job %q", msg.Lease.Job)
			}
			if js.bad || js.stopped.Load() {
				continue // already failed; the coordinator reclaims the lease
			}
			js.mu.Lock()
			for _, e := range msg.Lease.Table {
				js.mirror.Join(e)
			}
			js.mu.Unlock()
			queue.push(task{lease: *msg.Lease, js: js})
		case wire.KindRetire:
			if msg.Retire == nil {
				continue
			}
			if js := jobs[msg.Retire.Job]; js != nil {
				js.stopped.Store(true)
				delete(jobs, msg.Retire.Job)
			}
		case wire.KindShutdown:
			return nil
		default:
			return fmt.Errorf("dist: unexpected %q from coordinator", msg.Kind)
		}
	}
}
