package jobd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"revisionist/internal/dist"
	"revisionist/internal/dist/wire"
	"revisionist/internal/jobd/crashfs"
	"revisionist/internal/trace"
)

// JobState is one job's lifecycle position.
type JobState string

const (
	// StateQueued: admitted, waiting for a running slot.
	StateQueued JobState = "queued"
	// StateRunning: a live fleet session. Never persisted across a restart —
	// recovery re-queues it, resuming from the record's Progress snapshot
	// (the outcomes journaled at its last completed wave barrier) so only
	// the unfinished frontier is re-leased; determinism makes the resumed
	// report identical to an uninterrupted one.
	StateRunning JobState = "running"
	// StateDone: completed, report (and witness, if violations) attached.
	StateDone JobState = "done"
	// StateFailed: ended with an error (unresolvable everywhere, run error).
	StateFailed JobState = "failed"
	// StateCanceled: cancelled by request before completion.
	StateCanceled JobState = "canceled"
	// StateInterrupted: the daemon shut down mid-run; the partial report is
	// attached and the job is marked resumable — recovery re-queues it.
	StateInterrupted JobState = "interrupted"
)

// Record is one job's durable state: the normalized job, its lifecycle
// position, and — once finished — its report and witness. Records are the
// journal's line format and the source of every API response.
type Record struct {
	ID    string
	Job   wire.Job
	State JobState
	// Session names the client session that submitted the job; the
	// fair-share dispatcher balances across sessions, so one flooding
	// client cannot starve the others.
	Session   string        `json:",omitempty"`
	Err       string        `json:",omitempty"`
	Report    *wire.Report  `json:",omitempty"`
	Witness   *wire.Witness `json:",omitempty"`
	Resumable bool          `json:",omitempty"`
	// Progress is the session's completed-outcome snapshot, kept on
	// interrupt: recovery hands it to dist.Resume so a restart re-leases
	// only the unfinished frontier. While the job runs, each wave barrier
	// journals only what it adds (Queue.PutProgress); the full snapshot is
	// written by compaction and by the interrupted Put. Cleared on every
	// terminal state but interrupted.
	Progress *dist.Progress `json:",omitempty"`
}

// progressDelta is the journal line of one wave-barrier snapshot: the
// outcomes it completes beyond the record's previous snapshot, by frontier
// position, plus the snapshot's Wave and Frontier. Outcomes are immutable
// once recorded, so folding a record's deltas in order rebuilds exactly the
// snapshot the writer held (see Queue.fold).
type progressDelta struct {
	ID       string
	Wave     int
	Frontier int
	Outcomes []indexedOutcome `json:",omitempty"`
}

// indexedOutcome is one completed subtree outcome of a delta.
type indexedOutcome struct {
	At      int
	Outcome *trace.SubtreeOutcome
}

// journalLine decodes either line shape: a full Record, or a progressDelta
// nested under Delta. Nesting keeps the delta's job id out of the top-level
// ID field, so a loader that knows only records reads a delta as a record
// with no id and skips it instead of replacing the job with an empty one.
type journalLine struct {
	*Record
	Delta *progressDelta
}

// Info renders the record's externally visible state.
func (r *Record) Info() wire.JobInfo {
	info := wire.JobInfo{
		ID:        r.ID,
		Protocol:  r.Job.Protocol,
		Params:    r.Job.Params,
		Priority:  r.Job.Priority,
		State:     string(r.State),
		Err:       r.Err,
		Resumable: r.Resumable,
	}
	if r.Report != nil {
		info.Runs = r.Report.Runs
		info.Violations = len(r.Report.Violations)
	}
	if r.Progress != nil {
		info.Wave = r.Progress.Wave
		info.Frontier = r.Progress.Frontier
	}
	return info
}

// SyncMode selects when journal appends are fsynced.
type SyncMode int

const (
	// SyncEachPut fsyncs before Put returns: an acknowledged Put is durable.
	// The safest and slowest mode, the default. Progress deltas are the
	// exception: PutProgress never syncs inline, and the owner flushes them
	// within BatchDelay.
	SyncEachPut SyncMode = iota
	// SyncBatch group-commits: Put appends without syncing and the owner
	// flushes when BatchPuts accumulate or BatchDelay elapses. Callers that
	// promise acked-implies-durable (the daemon does) must defer their acks
	// until Flush returns — the contract survives, amortized over the batch.
	SyncBatch
	// SyncNever leaves durability to the OS page cache: a power failure can
	// lose any unflushed suffix. For throwaway deployments only.
	SyncNever
)

// String renders the mode as the checkd -sync flag spells it.
func (m SyncMode) String() string {
	switch m {
	case SyncBatch:
		return "batch"
	case SyncNever:
		return "none"
	default:
		return "put"
	}
}

// ParseSyncMode parses the checkd -sync flag.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "", "put":
		return SyncEachPut, nil
	case "batch":
		return SyncBatch, nil
	case "none":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("jobd: unknown sync mode %q (want put, batch, or none)", s)
}

// SyncPolicy is the journal's durability discipline.
type SyncPolicy struct {
	Mode SyncMode
	// BatchPuts and BatchDelay bound one group commit in SyncBatch mode: a
	// batch flushes when this many puts accumulate or this much time passes
	// since the first unflushed one (defaults 64 puts, 5ms). BatchDelay also
	// bounds how long a progress delta stays volatile under SyncEachPut.
	BatchPuts  int
	BatchDelay time.Duration
}

func (p SyncPolicy) withDefaults() SyncPolicy {
	if p.BatchPuts <= 0 {
		p.BatchPuts = 64
	}
	if p.BatchDelay <= 0 {
		p.BatchDelay = 5 * time.Millisecond
	}
	return p
}

// Queue is the daemon's durable job queue: an in-memory table journaled to
// one JSON-lines file (dir == "" keeps it memory-only). The journal holds two
// line shapes. Every Put appends the record's full new state (last record
// line per id wins); every PutProgress appends a delta holding only the
// outcomes a wave barrier added to a running record's snapshot, which replay
// folds onto that record. Replaying the journal therefore reconstructs the
// queue exactly. Opening compacts a non-empty journal to one full line per
// record and applies restart recovery: running jobs (the daemon died mid-search)
// and resumable interrupted jobs are re-queued. The queue is not
// concurrency-safe; the daemon loop owns it.
//
// Dispatch is not FIFO: queued records are indexed per client session with
// per-job priorities, and NextDispatch picks by weighted fair share (stride
// scheduling) so one flooding session cannot starve the rest. The index is
// maintained incrementally on Put, so a dispatch tick is O(sessions), not
// O(backlog).
type Queue struct {
	fs     crashfs.FS
	path   string
	f      crashfs.File
	logf   func(format string, args ...any)
	policy SyncPolicy
	obs    *QueueObs
	// ioerr latches a lost journal (the reopen after a compaction rename
	// failed): every later Put fails loudly instead of silently degrading
	// the queue to memory-only.
	ioerr error

	recs map[string]*Record
	// order is admission order: ids in first-seen journal order, the listing
	// order.
	order []string
	next  int

	// dirty counts journal appends since the last fsync; Flush clears it.
	dirty int

	// CompactAt is the online-compaction threshold in bytes (default 1 MiB;
	// <= 0 only at callers that build a Queue without OpenQueue). The journal
	// grows with every state change and every progress delta, while the live
	// set stays one line per job. Put and PutProgress rewrite the journal
	// once it exceeds CompactAt *and* the appended bytes exceed the last
	// compaction's size (so a genuinely large live set does not trigger a
	// rewrite per append).
	CompactAt int64
	// MaxLine caps one journal line during load (default wire.MaxFrame): an
	// oversized line — corruption, or a snapshot from a bigger build — is
	// skipped with a diagnostic instead of failing the whole open.
	MaxLine int
	// LoadSkipped counts journal lines the last load discarded (torn tails,
	// garbage, oversized) — surfaced so operators see corruption was
	// tolerated, not missed.
	LoadSkipped int
	// base is the journal size right after the last compaction; appended
	// counts bytes written since.
	base     int64
	appended int64

	// Dispatch index, maintained on Put: per-session priority buckets plus
	// stride-scheduling passes. inQ marks ids live in some bucket; removal
	// is lazy (dequeued or cancelled entries are peeled when their bucket
	// head is next inspected), so every mutation is O(1) amortized.
	sess      map[string]*sessionQueue
	sessOrder []string
	inQ       map[string]bool
	queuedN   int
}

// sessionQueue is one client session's share of the dispatch queue.
type sessionQueue struct {
	// buckets[p] holds queued ids of priority p in admission order; higher
	// priorities dispatch first within the session.
	buckets [prioMax + 1][]string
	n       int    // live (non-lazily-removed) entries across all buckets
	pass    uint64 // stride-scheduling virtual time
}

// Priorities are small integers: 1 (lowest share) through 9 (highest);
// 0 on the wire means prioDefault. The weight of a dispatch is the job's
// priority, so a priority-9 session receives 9× the dispatch share of a
// priority-1 one under contention.
const (
	prioMin     = 1
	prioMax     = 9
	prioDefault = 5
	// strideOne is the pass increment of a weight-1 dispatch; LCM(1..9), so
	// every weight divides it exactly and shares are integer-precise.
	strideOne = 2520
)

// dispatchPriority resolves a job's effective priority.
func dispatchPriority(job *wire.Job) int {
	p := job.Priority
	if p == 0 {
		return prioDefault
	}
	return min(max(p, prioMin), prioMax)
}

// journalName is the queue's file inside its directory.
const journalName = "jobs.jsonl"

// defaultCompactAt bounds a long-lived daemon's journal: ~1 MiB of upserts
// between rewrites.
const defaultCompactAt = 1 << 20

// QueueOption configures OpenQueue.
type QueueOption func(*Queue)

// WithFS journals through an alternate filesystem — the crash-matrix tests
// inject crashfs.Mem here. Default crashfs.OS.
func WithFS(fs crashfs.FS) QueueOption { return func(q *Queue) { q.fs = fs } }

// WithQueueLog receives load diagnostics (skipped journal lines).
func WithQueueLog(logf func(format string, args ...any)) QueueOption {
	return func(q *Queue) { q.logf = logf }
}

// WithSyncPolicy selects the journal's durability discipline (default
// SyncEachPut).
func WithSyncPolicy(p SyncPolicy) QueueOption {
	return func(q *Queue) { q.policy = p.withDefaults() }
}

// WithQueueObs points the queue at a metric bundle (nil leaves it off).
func WithQueueObs(m *QueueObs) QueueOption { return func(q *Queue) { q.obs = m } }

// WithMaxLine overrides the load-time line cap (default wire.MaxFrame);
// tests shrink it to exercise oversized-line skipping without 64 MiB files.
func WithMaxLine(n int) QueueOption {
	return func(q *Queue) {
		if n > 0 {
			q.MaxLine = n
		}
	}
}

// OpenQueue opens (or creates) the queue journaled under dir; dir == ""
// builds a memory-only queue that forgets everything on exit.
func OpenQueue(dir string, opts ...QueueOption) (*Queue, error) {
	q := &Queue{
		fs:        crashfs.OS,
		recs:      map[string]*Record{},
		next:      1,
		CompactAt: defaultCompactAt,
		MaxLine:   wire.MaxFrame,
		policy:    SyncPolicy{}.withDefaults(),
		sess:      map[string]*sessionQueue{},
		inQ:       map[string]bool{},
	}
	for _, o := range opts {
		o(q)
	}
	if dir == "" {
		return q, nil
	}
	if err := q.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("jobd: queue dir: %w", err)
	}
	q.path = filepath.Join(dir, journalName)
	lines, err := q.load()
	if err != nil {
		return nil, err
	}
	q.obs.Skipped(q.LoadSkipped)
	q.recover()
	if lines == 0 {
		// An absent or empty journal has nothing to compact: open it for
		// appending directly, without the tmp file, its fsync and the rename.
		if q.f, err = q.fs.Create(q.path); err != nil {
			return nil, fmt.Errorf("jobd: create journal: %w", err)
		}
	} else if err := q.compact(); err != nil {
		return nil, err
	}
	// Rebuild the dispatch index from the recovered live set.
	for _, id := range q.order {
		q.track(q.recs[id])
	}
	return q, nil
}

func (q *Queue) logln(format string, args ...any) {
	if q.logf != nil {
		q.logf(format, args...)
	}
}

// load replays the journal: the last record line per id wins, and each
// progress delta folds onto its record. The loader is deliberately
// forgiving: a torn final line (crash mid-append), an undecodable line (bit
// rot), a line beyond MaxLine (a giant snapshot from a foreign build), or a
// delta that cannot apply is skipped with a diagnostic — the compaction that
// follows drops the debris — so no journal state can brick a daemon start.
// It returns the number of lines read, blank and skipped ones included, so 0
// means the journal holds no byte at all.
func (q *Queue) load() (int, error) {
	f, err := q.fs.Open(q.path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("jobd: open journal: %w", err)
	}
	defer f.Close()
	q.LoadSkipped = 0
	r := bufio.NewReaderSize(f, 64<<10)
	var line []byte
	lineNo, overLen := 0, 0
	flush := func(torn bool) {
		lineNo++
		if overLen > 0 {
			q.LoadSkipped++
			q.logln("journal line %d: %d bytes exceeds the %d-byte cap, skipped", lineNo, overLen, q.MaxLine)
			return
		}
		text := bytes.TrimSpace(line)
		if len(text) == 0 {
			return
		}
		jl := journalLine{Record: &Record{}}
		err := json.Unmarshal(text, &jl)
		if err == nil && jl.ID == "" && jl.Delta != nil {
			if why := q.fold(jl.Delta); why != "" {
				q.LoadSkipped++
				q.logln("journal line %d: progress delta %s, skipped", lineNo, why)
			}
			return
		}
		rec := jl.Record
		if err != nil || rec.ID == "" {
			q.LoadSkipped++
			if torn {
				q.logln("journal line %d: torn final line (%d bytes), skipped", lineNo, len(text))
			} else {
				q.logln("journal line %d: undecodable (%d bytes), skipped", lineNo, len(text))
			}
			return
		}
		if _, seen := q.recs[rec.ID]; !seen {
			q.order = append(q.order, rec.ID)
		}
		q.recs[rec.ID] = rec
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "j")); err == nil && n >= q.next {
			q.next = n + 1
		}
	}
	for {
		chunk, rerr := r.ReadSlice('\n')
		if len(chunk) > 0 {
			if overLen > 0 || len(line)+len(chunk) > q.MaxLine {
				overLen += len(line) + len(chunk)
				line = nil
			} else {
				line = append(line, chunk...)
			}
		}
		switch {
		case rerr == nil:
			flush(false)
			line, overLen = line[:0], 0
		case errors.Is(rerr, bufio.ErrBufferFull):
			// Line continues past the reader buffer; keep accumulating.
		case rerr == io.EOF:
			if len(line) > 0 || overLen > 0 {
				flush(true)
			}
			return lineNo, nil
		default:
			return lineNo, fmt.Errorf("jobd: read journal: %w", rerr)
		}
	}
}

// fold applies one progress delta to its record during load, returning why
// it was dropped ("" once applied). A delta for an unknown job or one not
// running is debris: this package appends deltas only to running records,
// after the Put that made them running. A delta whose Frontier disagrees with
// the record's snapshot starts a fresh one, the rule PutProgress writes by.
// The frontier bound keeps a corrupt line from allocating more outcome slots
// than a loadable full line could list.
func (q *Queue) fold(d *progressDelta) string {
	rec := q.recs[d.ID]
	if rec == nil || rec.State != StateRunning {
		return fmt.Sprintf("for %q, which is not a running job", d.ID)
	}
	if d.Frontier < 0 || d.Frontier > q.MaxLine/len("null,") {
		return fmt.Sprintf("with implausible frontier %d", d.Frontier)
	}
	for _, o := range d.Outcomes {
		if o.At < 0 || o.At >= d.Frontier || o.Outcome == nil {
			return fmt.Sprintf("with no outcome or one outside frontier %d", d.Frontier)
		}
	}
	p := rec.Progress
	if p == nil || p.Frontier != d.Frontier || len(p.Outcomes) != d.Frontier {
		p = &dist.Progress{Frontier: d.Frontier, Outcomes: make([]*trace.SubtreeOutcome, d.Frontier)}
		rec.Progress = p
	}
	p.Wave = d.Wave
	for _, o := range d.Outcomes {
		p.Outcomes[o.At] = o.Outcome
	}
	return ""
}

// recover applies the restart rules: a job that was running when the daemon
// died and an interrupted resumable job are both re-queued, keeping their
// ids and — crucially — their Progress snapshots, so the restart re-leases
// only the unfinished frontier. Partial reports are dropped (the resumed
// merge supersedes them).
func (q *Queue) recover() {
	for _, id := range q.order {
		rec := q.recs[id]
		if rec.State == StateRunning || (rec.State == StateInterrupted && rec.Resumable) {
			rec.State = StateQueued
			rec.Err = ""
			rec.Report = nil
			rec.Witness = nil
			rec.Resumable = false
		}
	}
}

// compact rewrites the journal to one full line per live record and leaves
// it open for appending. Runs at the open of a journal holding any byte,
// and again online whenever an append crosses the size threshold. The tmp file is fully written, synced, and
// closed before the rename, and the old journal (and its open handle) stay
// untouched until the swap succeeds — a failure anywhere leaves the queue
// exactly as durable as before, never silently memory-only.
//
// A snapshot folded from deltas can outgrow the MaxLine cap each delta
// respected, and the next load would skip the whole record's line: such a
// record loses its snapshot instead (snapshots are advisory — the job
// re-runs its waves).
func (q *Queue) compact() error {
	if q.path == "" {
		return nil
	}
	if q.ioerr != nil {
		return q.ioerr
	}
	tmp := q.path + ".tmp"
	f, err := q.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("jobd: compact journal: %w", err)
	}
	var size int64
	for _, id := range q.order {
		rec := q.recs[id]
		line, err := encodeRecord(rec)
		if err == nil && len(line) > q.MaxLine && rec.Progress != nil {
			q.logln("job %s: %d-byte journal line exceeds the %d-byte cap, progress snapshot dropped", id, len(line), q.MaxLine)
			rec.Progress = nil
			line, err = encodeRecord(rec)
		}
		if err != nil {
			f.Close()
			return err
		}
		n, err := f.Write(line)
		if err != nil {
			f.Close()
			return fmt.Errorf("jobd: compact journal: %w", err)
		}
		size += int64(n)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("jobd: compact journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("jobd: compact journal: %w", err)
	}
	if err := q.fs.Rename(tmp, q.path); err != nil {
		// The old journal is still in place and q.f still appends to it.
		return fmt.Errorf("jobd: compact journal: %w", err)
	}
	// Point of no return: the compacted journal is live. The old handle (if
	// any) points at the unlinked file; swap it for a fresh append handle.
	old := q.f
	nf, err := q.fs.OpenAppend(q.path)
	if err != nil {
		// The compacted journal is durable on disk but we cannot append to
		// it: latch the error so every later Put fails loudly.
		q.f = nil
		q.ioerr = fmt.Errorf("jobd: journal unappendable after compaction: %w", err)
		if old != nil {
			old.Close()
		}
		return q.ioerr
	}
	if old != nil {
		old.Close()
	}
	q.f = nf
	q.base = size
	q.appended = 0
	q.dirty = 0 // the compacted snapshot was synced: nothing is pending
	q.obs.Compacted()
	return nil
}

// encodeRecord renders one full journal line, newline included.
func encodeRecord(rec *Record) ([]byte, error) {
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("jobd: encode record %s: %w", rec.ID, err)
	}
	return append(line, '\n'), nil
}

// NextID mints a fresh job id ("j0001", "j0002", ...).
func (q *Queue) NextID() string {
	id := fmt.Sprintf("j%04d", q.next)
	q.next++
	return id
}

// Put upserts a record and journals its full new state. Under SyncEachPut
// (the default) the append is fsynced before Put returns, so an acknowledged
// submission survives a crash; under SyncBatch the owner flushes batches and
// defers its acks accordingly.
func (q *Queue) Put(rec *Record) error {
	if _, seen := q.recs[rec.ID]; !seen {
		q.order = append(q.order, rec.ID)
	}
	q.recs[rec.ID] = rec
	q.track(rec)
	if q.path == "" {
		return nil
	}
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	return q.append(line, q.policy.Mode == SyncEachPut)
}

// PutProgress journals a running record's newer wave-barrier snapshot as a
// delta: one line holding only the outcomes p completes beyond the record's
// current Progress — all of them when it has none or a different Frontier,
// the same rule replay resets by — plus p's Wave and Frontier. p must extend
// the current snapshot (outcomes are immutable once recorded) and carry one
// slot per frontier subtree.
//
// The delta is never fsynced inline, in any sync mode: a snapshot is
// advisory, so the owner's group-commit timer makes it durable within
// SyncPolicy.BatchDelay (Daemon.afterAction) and a power cut costs at most
// that window of re-run waves — never an acked Put.
func (q *Queue) PutProgress(id string, p *dist.Progress) error {
	rec := q.recs[id]
	if rec == nil || rec.State != StateRunning {
		return fmt.Errorf("jobd: progress for %q, which is not a running job", id)
	}
	if len(p.Outcomes) != p.Frontier {
		return fmt.Errorf("jobd: progress for %s carries %d outcome slots for frontier %d", id, len(p.Outcomes), p.Frontier)
	}
	old := rec.Progress
	rec.Progress = p
	if q.path == "" {
		return nil
	}
	d := &progressDelta{ID: id, Wave: p.Wave, Frontier: p.Frontier}
	fresh := old == nil || old.Frontier != p.Frontier || len(old.Outcomes) != p.Frontier
	for i, o := range p.Outcomes {
		if o != nil && (fresh || old.Outcomes[i] == nil) {
			d.Outcomes = append(d.Outcomes, indexedOutcome{At: i, Outcome: o})
		}
	}
	line, err := json.Marshal(journalLine{Delta: d})
	if err != nil {
		return fmt.Errorf("jobd: encode progress %s: %w", id, err)
	}
	return q.append(append(line, '\n'), false)
}

// append journals one encoded line, fsyncing it first when sync is set. When
// the journal outgrows CompactAt it is compacted in place — a long-lived
// daemon's journal stays bounded by max(CompactAt, live set) plus one
// compaction's worth of appends.
func (q *Queue) append(line []byte, sync bool) error {
	if q.ioerr != nil {
		return q.ioerr
	}
	n, err := q.f.Write(line)
	if err != nil {
		return fmt.Errorf("jobd: journal append: %w", err)
	}
	q.appended += int64(n)
	q.dirty++
	q.obs.Appended(n)
	if sync {
		if err := q.Flush(); err != nil {
			return err
		}
	}
	if q.CompactAt > 0 && q.base+q.appended > q.CompactAt && q.appended > q.base {
		if err := q.compact(); err != nil {
			if q.ioerr != nil {
				return q.ioerr // journal lost: nothing further can be promised
			}
			// The line itself is already appended (and, if sync was set,
			// synced) to the still-intact old journal — this append's
			// durability holds. The rewrite retries at the next threshold
			// crossing.
			q.logln("journal compaction failed (will retry): %v", err)
		}
	}
	return nil
}

// Flush fsyncs pending appends; after a nil return every earlier Put is
// durable. The group-commit point of SyncBatch mode.
func (q *Queue) Flush() error {
	if q.ioerr != nil {
		return q.ioerr
	}
	if q.f == nil || q.dirty == 0 {
		return nil
	}
	puts, start := q.dirty, q.obs.SyncStart()
	if err := q.f.Sync(); err != nil {
		return fmt.Errorf("jobd: journal sync: %w", err)
	}
	q.obs.Synced(puts, start)
	q.dirty = 0
	return nil
}

// Dirty counts journal appends not yet fsynced.
func (q *Queue) Dirty() int { return q.dirty }

// Healthy reports whether the journal is still appendable — false after a
// lost journal (a failed reopen following a compaction rename), the state
// in which every Put fails. Readiness probes surface it.
func (q *Queue) Healthy() bool { return q.ioerr == nil }

// Policy returns the journal's sync policy.
func (q *Queue) Policy() SyncPolicy { return q.policy }

// track reconciles the dispatch index (and the observability gauges) with
// rec's current state.
func (q *Queue) track(rec *Record) {
	q.obs.Track(rec.ID, rec.State)
	queued := rec.State == StateQueued
	switch {
	case queued && !q.inQ[rec.ID]:
		q.enqueue(rec)
	case !queued && q.inQ[rec.ID]:
		// Lazy removal: the bucket entry is peeled when next inspected.
		delete(q.inQ, rec.ID)
		q.queuedN--
		if sq := q.sess[rec.Session]; sq != nil {
			sq.n--
		}
	}
	q.obs.Depth(q.queuedN)
}

// enqueue indexes one newly queued record for dispatch.
func (q *Queue) enqueue(rec *Record) {
	sq := q.sess[rec.Session]
	if sq == nil {
		sq = &sessionQueue{}
		q.sess[rec.Session] = sq
		q.sessOrder = append(q.sessOrder, rec.Session)
	}
	if sq.n == 0 {
		// A session (re)entering contention joins at the current virtual
		// time: idle time is not banked, so a returning session cannot burst
		// ahead of sessions that kept the fleet busy.
		if vt, ok := q.minActivePass(); ok && sq.pass < vt {
			sq.pass = vt
		}
	}
	p := dispatchPriority(&rec.Job)
	sq.buckets[p] = append(sq.buckets[p], rec.ID)
	sq.n++
	q.inQ[rec.ID] = true
	q.queuedN++
}

// minActivePass is the least pass among sessions with queued work.
func (q *Queue) minActivePass() (uint64, bool) {
	var vt uint64
	found := false
	for _, s := range q.sessOrder {
		sq := q.sess[s]
		if sq.n == 0 {
			continue
		}
		if !found || sq.pass < vt {
			vt, found = sq.pass, true
		}
	}
	return vt, found
}

// head peels lazily-removed entries and returns the session's best queued id
// (highest priority, admission order within it), or "".
func (sq *sessionQueue) head(inQ map[string]bool) (string, int) {
	for p := prioMax; p >= prioMin; p-- {
		b := sq.buckets[p]
		for len(b) > 0 && !inQ[b[0]] {
			b = b[1:]
		}
		sq.buckets[p] = b
		if len(b) > 0 {
			return b[0], p
		}
	}
	return "", 0
}

// NextDispatch removes and returns the next record to start, or nil when
// nothing is queued. Selection is weighted fair share across sessions by
// stride scheduling: the session with the least virtual time dispatches
// (ties break in session-arrival order), its best job — highest priority
// first, FIFO within a priority — goes out, and its virtual time advances by
// strideOne/priority, so over a contended stretch each session's dispatch
// share is proportional to the priorities it runs. A single session degrades
// to plain priority-then-FIFO, the old behavior.
func (q *Queue) NextDispatch() *Record {
	if q.queuedN == 0 {
		return nil
	}
	var best *sessionQueue
	for _, s := range q.sessOrder {
		sq := q.sess[s]
		if sq.n == 0 {
			continue
		}
		if best == nil || sq.pass < best.pass {
			best = sq
		}
	}
	if best == nil {
		return nil
	}
	id, p := best.head(q.inQ)
	if id == "" {
		return nil
	}
	best.buckets[p] = best.buckets[p][1:]
	best.n--
	best.pass += strideOne / uint64(p)
	delete(q.inQ, id)
	q.queuedN--
	q.obs.Depth(q.queuedN)
	return q.recs[id]
}

// Get returns the record for id, or nil.
func (q *Queue) Get(id string) *Record { return q.recs[id] }

// QueuedDepth counts jobs waiting for a running slot. O(1): the dispatch
// index maintains it, so admission checks against MaxQueued do not scan the
// backlog they are bounding.
func (q *Queue) QueuedDepth() int { return q.queuedN }

// List renders every record in admission order.
func (q *Queue) List() []wire.JobInfo {
	out := make([]wire.JobInfo, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.recs[id].Info())
	}
	return out
}

// Close flushes pending appends and closes the journal.
func (q *Queue) Close() error {
	if q.f == nil {
		return nil
	}
	ferr := q.Flush()
	err := q.f.Close()
	q.f = nil
	if ferr != nil {
		return ferr
	}
	return err
}
