// Package wire is the message format of the distributed schedule search:
// length-prefixed JSON over any stream transport (an in-process pipe in
// tests, TCP between machines). Every frame is a 4-byte big-endian length
// followed by that many bytes of one JSON-encoded Msg envelope.
//
// The worker conversation is deliberately small. Since version 3 every job
// carries an id and leases/results/fails are tagged with it, so one fleet
// multiplexes any number of concurrent jobs:
//
//	worker -> coordinator   hello   {version, slots}
//	coordinator -> worker   reject  {got, want, error}  (version skew)
//	coordinator -> worker   job     {id, protocol, params, explore options}
//	coordinator -> worker   lease   {job id, subtree id, root prefix,
//	                                 budget base, visited-state delta}
//	worker -> coordinator   result  {job id, subtree id, complete outcome}
//	worker -> coordinator   fail    {job id, error}     (job unresolvable)
//	coordinator -> worker   retire  {job id}            (job finished: drop it)
//	coordinator -> worker   ping                        (liveness probe)
//	worker -> coordinator   pong
//	coordinator -> worker   shutdown
//
// Results carry complete subtree outcomes only — a worker that dies mid-
// subtree contributes nothing, and the coordinator re-leases the subtree —
// so every message is idempotent and the merged report cannot depend on
// worker count, arrival order, or failures.
//
// The same framing carries the job-lifecycle API of the checking daemon
// (internal/jobd): clients submit jobs, poll status, fetch results and
// witness artifacts, cancel, and list — see the Kind* constants of the
// client protocol below.
//
// The same JSON types double as the on-disk witness format: a Witness file
// records a protocol instance plus its violating schedules, replayable with
// trace.ReplayViolation (modelcheck -witness / -replay).
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"revisionist/internal/protocol"
	"revisionist/internal/sched"
	"revisionist/internal/trace"
)

// Version is the protocol version; a coordinator rejects workers speaking a
// different one (the search's determinism depends on both sides running the
// same subtree semantics). Version 2 added ExploreOpts.Symmetry: a version-1
// worker would silently drop the field and explore with plain fingerprints,
// corrupting the merge. Version 3 multiplexes concurrent jobs over one
// worker fleet: jobs carry ids, leases/results/fails are job-tagged, and a
// "retire" message releases per-job worker state — a version-2 worker would
// ignore the tags and merge unrelated jobs into one table, so mismatched
// peers are now rejected with an explicit "reject" message instead of a
// silent close. Version 4 adds the ping/pong liveness envelopes the fleet's
// failure detector rests on: a version-3 worker treats a ping as a protocol
// error and drops the connection mid-search, so v3 peers get the same
// explicit reject. Version 5 adds Job.Priority (the daemon's fair-share
// weight) and the Ack.Retryable admission-control classification: a
// version-4 peer would silently drop the priority — dispatching at the wrong
// share — and treat a retryable queue-full rejection as terminal, so v4
// peers get the explicit reject too. Version 6 adds the observability
// surface: the trace/events client kinds (per-job flight-recorder dumps),
// the queue-headroom attachment on jobs listings, and the JobInfo wave/
// frontier progress fields — a version-5 peer would treat a trace request
// as a protocol error and silently drop the new fields, so v5 peers get
// the explicit reject. Version 7 credits subtree outcomes whole: a lease
// carries Lease.ViolBase, a worker stops on it, and an outcome that
// overshoots a cutoff is re-leased on exact bases instead of being trimmed
// from per-run records, which results no longer carry. A version-6 worker
// would ignore ViolBase, overshoot again on every re-lease and loop the
// coordinator, so v6 peers get the explicit reject.
const Version = 7

// MaxFrame caps one frame's length (64 MiB): a corrupt or hostile length
// prefix must not allocate unboundedly.
const MaxFrame = 1 << 26

// Message kinds of the worker protocol.
const (
	KindHello    = "hello"
	KindJob      = "job"
	KindLease    = "lease"
	KindResult   = "result"
	KindFail     = "fail"
	KindShutdown = "shutdown"
	// KindReject answers a handshake the coordinator cannot serve (version
	// skew): the explicit compatibility error a version-2 peer gets instead
	// of a silent close.
	KindReject = "reject"
	// KindRetire tells a worker a job is finished or cancelled: drop its
	// resolved state and mirror table, abandon its in-flight subtrees.
	KindRetire = "retire"
	// KindPing probes a silent worker; KindPong answers it. Both carry no
	// body — arrival alone is the liveness signal. A worker that neither
	// sends results nor answers pings within the fleet's miss window is
	// retired and its subtrees re-leased, exactly like a dead one.
	KindPing = "ping"
	KindPong = "pong"
)

// Message kinds of the job-lifecycle (client <-> daemon) protocol. A client
// and a worker share one daemon listener; the first frame tells them apart
// (workers open with hello).
const (
	KindSubmit = "submit" // client -> daemon: queue a job        (body Submit)
	KindAck    = "ack"    // daemon -> client: id or field errors (body Ack)
	KindStatus = "status" // client -> daemon: one job's state    (body Ref)
	KindCancel = "cancel" // client -> daemon: cancel a job       (body Ref)
	KindFetch  = "fetch"  // client -> daemon: result + witness   (body Ref)
	KindList   = "list"   // client -> daemon: all jobs           (no body)
	KindInfo   = "info"   // daemon -> client: one job's state    (body Info)
	KindJobs   = "jobs"   // daemon -> client: all jobs           (body Jobs)
	KindReport = "report" // daemon -> client: result + witness   (body Report)
	KindTrace  = "trace"  // client -> daemon: flight recording   (body Ref)
	KindEvents = "events" // daemon -> client: flight recording   (body Events)
)

// Hello is the worker's opening message: protocol version and how many
// subtree leases it can run concurrently on its local pool.
type Hello struct {
	Version int
	Slots   int
}

// Job describes one exploration to every worker: its id (the multiplexing
// key of every later lease/result/fail/retire), which registry protocol to
// instantiate, with which parameters, under which exploration options. Both
// sides build the factory from their own registry, so only names and numbers
// cross the wire. (ExploreOpts.Interrupted is a local closure and is
// excluded from the encoding.)
type Job struct {
	ID       string `json:",omitempty"`
	Protocol string
	Params   protocol.Params
	// Priority is the daemon's fair-share weight: 1 (lowest) through 9
	// (highest); 0 means the default (5). Higher priorities dispatch first
	// within a session and earn the session a proportionally larger share
	// of freed slots under contention. Meaningless to workers — dispatch
	// already happened by the time a job reaches one.
	Priority int `json:",omitempty"`
	Opts     trace.ExploreOpts
}

// Lease hands one subtree of job Job to a worker. Table is the
// visited-state delta — the closure entries published at that job's wave
// barriers since this worker's last lease of it — bringing the worker's
// per-job mirror exactly to the table frozen at this subtree's wave start.
// Base and ViolBase are lower bounds on the runs and violations the merge
// will credit before this subtree (trace.Waves.Base); the worker stops the
// subtree on them.
type Lease struct {
	Job      string `json:",omitempty"`
	ID       int
	Root     []int
	Base     int
	ViolBase int             `json:",omitempty"`
	Table    []trace.FpEntry `json:",omitempty"`
}

// Result returns one complete subtree outcome of job Job.
type Result struct {
	Job     string `json:",omitempty"`
	ID      int
	Outcome *trace.SubtreeOutcome
}

// Fail rejects one job: the worker could not resolve or validate it
// (unknown protocol, registry skew) or could not run its subtrees
// (capability skew). Job-scoped — the worker keeps serving its other jobs.
// Distinct from a run error inside a subtree, which is a legitimate outcome
// the merge reproduces.
type Fail struct {
	Job string `json:",omitempty"`
	Err string
}

// Reject answers an incompatible handshake: the peer's version, the version
// this side requires, and a human-readable explanation. The connection
// closes right after.
type Reject struct {
	Got  int
	Want int
	Err  string
}

// Retire releases one job on a worker: resolved state and mirror table are
// dropped, in-flight subtrees of the job are abandoned (their outcomes are
// never reported — the job is finished or cancelled, nobody merges them).
type Retire struct {
	Job string
}

// Submit asks the daemon to queue one job. The submitted Job's ID field is
// ignored — the daemon assigns ids.
type Submit struct {
	Job Job
}

// Ack answers a submission: the assigned job id, or the structured
// validation errors that rejected it (Err carries the aggregate rendering).
// Retryable classifies a rejection: true marks a transient condition — the
// admission queue is full, the daemon is shutting down — that the same
// submission may clear after a backoff (Client.SubmitRetry automates this);
// false marks a terminal one (validation, journal failure) where retrying
// the identical job is pointless.
type Ack struct {
	ID        string                `json:",omitempty"`
	Fields    []protocol.FieldError `json:",omitempty"`
	Err       string                `json:",omitempty"`
	Retryable bool                  `json:",omitempty"`
}

// Ref names one job in a status/cancel/fetch request.
type Ref struct {
	ID string
}

// JobInfo is one job's externally visible state.
type JobInfo struct {
	ID       string
	Protocol string
	Params   protocol.Params
	// Priority is the job's fair-share weight (0 rendered for the default).
	Priority int `json:",omitempty"`
	// State is one of the jobd lifecycle states: "queued", "running",
	// "done", "failed", "canceled", "interrupted".
	State string
	// Runs and Violations summarize the report of a finished (or
	// interrupted) job.
	Runs       int
	Violations int
	// Err is the failure message of a failed job.
	Err string `json:",omitempty"`
	// Resumable marks an interrupted job the daemon will re-queue on
	// restart.
	Resumable bool `json:",omitempty"`
	// Wave and Frontier summarize a running or resumable job's latest
	// mid-subtree progress snapshot: completed wave barriers and the total
	// frontier size the exploration is working through. Zero until the
	// first barrier.
	Wave     int `json:",omitempty"`
	Frontier int `json:",omitempty"`
}

// TraceEvent is one flight-recorder event in wire form: what happened to a
// job (wave barrier, lease, re-lease, worker death, resume) and when.
type TraceEvent struct {
	At     time.Time
	Kind   string
	Detail string `json:",omitempty"`
}

// Events is a job's flight recording: its ring-buffered events oldest
// first, plus how many older events the bounded ring has dropped.
type Events struct {
	Job     string
	Dropped int          `json:",omitempty"`
	Events  []TraceEvent `json:",omitempty"`
}

// QueueInfo is the daemon's admission headroom, attached to jobs listings
// so overload rejections are diagnosable from the client side.
type QueueInfo struct {
	Queued    int
	MaxQueued int
}

// Report is a trace.ExploreReport in wire form: violations flattened to
// schedule + message, everything else verbatim.
type Report struct {
	Runs       int
	Truncated  int
	Exhausted  bool
	Pruned     int
	Distinct   int
	Violations []Violation `json:",omitempty"`
}

// ReportOf converts an exploration report to its wire form.
func ReportOf(rep *trace.ExploreReport) *Report {
	r := &Report{
		Runs:      rep.Runs,
		Truncated: rep.Truncated,
		Exhausted: rep.Exhausted,
		Pruned:    rep.Pruned,
		Distinct:  rep.Distinct,
	}
	for _, v := range rep.Violations {
		r.Violations = append(r.Violations, Violation{Schedule: v.Schedule, Err: v.Err.Error()})
	}
	return r
}

// Explore converts back. Violation errors were flattened to messages, so the
// reconstructed errors render identically but lose their wrapped chain.
func (r *Report) Explore() *trace.ExploreReport {
	rep := &trace.ExploreReport{
		Runs:      r.Runs,
		Truncated: r.Truncated,
		Exhausted: r.Exhausted,
		Pruned:    r.Pruned,
		Distinct:  r.Distinct,
	}
	for _, v := range r.Violations {
		rep.Violations = append(rep.Violations, trace.Violation{Schedule: v.Schedule, Err: errors.New(v.Err)})
	}
	return rep
}

// JobReport is the fetchable artifact of a finished job: its state, the job
// as resolved at submission, the merged report, and the witness document
// (retrievable per job, same format modelcheck -witness writes).
type JobReport struct {
	Info    JobInfo
	Job     Job
	Report  *Report  `json:",omitempty"`
	Witness *Witness `json:",omitempty"`
}

// Msg is the frame envelope: Kind selects which body field is set.
type Msg struct {
	Kind   string
	Hello  *Hello     `json:",omitempty"`
	Job    *Job       `json:",omitempty"`
	Lease  *Lease     `json:",omitempty"`
	Result *Result    `json:",omitempty"`
	Fail   *Fail      `json:",omitempty"`
	Reject *Reject    `json:",omitempty"`
	Retire *Retire    `json:",omitempty"`
	Submit *Submit    `json:",omitempty"`
	Ack    *Ack       `json:",omitempty"`
	Ref    *Ref       `json:",omitempty"`
	Info   *JobInfo   `json:",omitempty"`
	Jobs   []JobInfo  `json:",omitempty"`
	Report *JobReport `json:",omitempty"`
	Events *Events    `json:",omitempty"`
	// Queue rides along on a jobs listing: the daemon's current queued
	// depth against its admission bound.
	Queue *QueueInfo `json:",omitempty"`
}

// Observer receives one call per successfully framed message: the
// direction ("in" for Recv, "out" for Send), the message kind, and the
// frame's length on the wire (header plus body). Observers are a pure
// measurement tap — they cannot alter or suppress traffic — and must be
// safe for concurrent calls (sends and receives overlap).
type Observer func(dir, kind string, bytes int)

// Conn frames messages over one stream. Sends are serialized by an internal
// mutex (a worker's pool goroutines send results concurrently); Recv must be
// called from one goroutine at a time.
type Conn struct {
	rw  io.ReadWriter
	nc  net.Conn // non-nil when rw supports deadlines
	wmu sync.Mutex

	// Frame deadlines in nanoseconds, atomic so Recv never contends on the
	// send mutex (the conversation is full-duplex).
	rtimeout atomic.Int64
	wtimeout atomic.Int64

	// obs taps per-kind frame and byte counts; atomic for the same reason.
	obs atomic.Pointer[Observer]
}

// NewConn wraps a stream.
func NewConn(rw io.ReadWriter) *Conn {
	c := &Conn{rw: rw}
	if nc, ok := rw.(net.Conn); ok {
		c.nc = nc
	}
	return c
}

// SetTimeouts arms per-frame deadlines when the underlying stream is a
// net.Conn (TCP and net.Pipe both are): each Recv must produce a complete
// frame within read — so a peer that stops mid-frame trips the deadline
// instead of pinning the reader forever — and each Send must flush within
// write. Zero disables either side; on a bare io.ReadWriter both are
// silently inert.
func (c *Conn) SetTimeouts(read, write time.Duration) {
	c.rtimeout.Store(int64(read))
	c.wtimeout.Store(int64(write))
}

// SetObserver installs fn as the connection's traffic tap (nil removes it).
// Send and Recv report each successfully framed message to it.
func (c *Conn) SetObserver(fn Observer) {
	if fn == nil {
		c.obs.Store(nil)
		return
	}
	c.obs.Store(&fn)
}

// observe reports one framed message to the installed observer, if any.
func (c *Conn) observe(dir, kind string, bytes int) {
	if o := c.obs.Load(); o != nil {
		(*o)(dir, kind, bytes)
	}
}

// Send writes one frame.
func (c *Conn) Send(m *Msg) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("wire: encode %s: %w", m.Kind, err)
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("wire: %s frame of %d bytes exceeds the %d-byte cap", m.Kind, len(body), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if wt := time.Duration(c.wtimeout.Load()); wt > 0 && c.nc != nil {
		c.nc.SetWriteDeadline(time.Now().Add(wt))
	}
	if _, err := c.rw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err = c.rw.Write(body); err != nil {
		return err
	}
	c.observe("out", m.Kind, len(hdr)+len(body))
	return nil
}

// Recv reads one frame. Truncation — a peer that died or was cut off
// mid-frame — is reported distinctly from a clean EOF between frames, so
// transport logs name torn frames instead of a bare unexpected-EOF.
func (c *Conn) Recv() (*Msg, error) {
	if rt := time.Duration(c.rtimeout.Load()); rt > 0 && c.nc != nil {
		c.nc.SetReadDeadline(time.Now().Add(rt))
	}
	var hdr [4]byte
	if nh, err := io.ReadFull(c.rw, hdr[:]); err != nil {
		if nh > 0 {
			return nil, fmt.Errorf("wire: torn frame header: %d of 4 bytes: %w", nh, err)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte cap", n, MaxFrame)
	}
	body, nb, err := readBody(c.rw, int(n))
	if err != nil {
		return nil, fmt.Errorf("wire: torn frame: %d of %d body bytes: %w", nb, n, err)
	}
	m := &Msg{}
	if err := json.Unmarshal(body, m); err != nil {
		return nil, fmt.Errorf("wire: decode frame: %w", err)
	}
	c.observe("in", m.Kind, len(hdr)+len(body))
	return m, nil
}

// bodyChunk is the most a frame body allocates before its bytes arrive.
const bodyChunk = 64 << 10

// readBody reads an n-byte frame body. The buffer starts at bodyChunk bytes
// and doubles as bytes arrive, never past n, so a length prefix that promises
// more than the peer sends costs about twice what arrived, not the promised
// size.
func readBody(r io.Reader, n int) ([]byte, int, error) {
	body := make([]byte, min(n, bodyChunk))
	got := 0
	for {
		k, err := io.ReadFull(r, body[got:])
		got += k
		if err != nil {
			return nil, got, err
		}
		if got == n {
			return body, got, nil
		}
		body = append(body, make([]byte, min(len(body), n-len(body)))...)
	}
}

// Violation is one violating schedule in witness form: the scheduler picks
// plus the check error's message.
type Violation struct {
	Schedule []int
	Err      string
}

// Witness is the on-disk record of a Check run's violations: enough context
// to re-instantiate the protocol and replay every schedule. It is the wire
// format's first file consumer (modelcheck -witness / -replay).
type Witness struct {
	Protocol   string
	Params     protocol.Params
	Engine     string // compatibility field: "" or sched.EngineName
	MaxDepth   int
	Violations []Violation
}

// WitnessOf records rep's violating schedules. engine is the job's
// compatibility engine name; the empty default is recorded as
// sched.EngineName, so a witness reads the same whichever front end wrote
// it.
func WitnessOf(protocolName string, params protocol.Params, engine string, maxDepth int, viols []trace.Violation) *Witness {
	if engine == "" {
		engine = sched.EngineName
	}
	w := &Witness{Protocol: protocolName, Params: params, Engine: engine, MaxDepth: maxDepth}
	for _, v := range viols {
		w.Violations = append(w.Violations, Violation{Schedule: v.Schedule, Err: v.Err.Error()})
	}
	return w
}
