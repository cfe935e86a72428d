package dist

import (
	"sort"

	"revisionist/internal/dist/wire"
	"revisionist/internal/trace"
)

// session is the per-job coordinator state of one distributed exploration.
// Everything that makes the report deterministic — the canonical waves, the
// bases, the cutoff and the re-opened subtree it lands in, the merged
// visited-state table with its join log, and the merge — is the embedded
// trace.Waves, the same protocol the in-process explorer drives. The
// session adds only lease bookkeeping, scoped to one job: the fleet
// multiplexes many sessions over one worker population, and because leases
// are pure functions of (wave state, subtree id), a job's merged report
// cannot depend on which other jobs shared the fleet. Only the fleet loop
// touches a session.
type session struct {
	*trace.Waves
	id  string
	job wire.Job

	pending  []int // unassigned open subtrees of the current wave, ascending
	assigned map[int]*workerConn

	// failed marks workers that rejected this job (registry or capability
	// skew); they are never leased this job again but keep serving others.
	failed map[*workerConn]bool

	// resumed counts outcomes restored from a Progress snapshot instead of
	// leased: the subtrees a restart did not have to re-run.
	resumed int

	// result delivers the SessionResult exactly once (buffered so the fleet
	// loop never blocks on it); finished guards the exactly-once.
	result   chan SessionResult
	finished bool
}

// newSession plans one job's session from its already-computed frontier.
func newSession(id string, job wire.Job, frontier [][]int, width int) *session {
	s := &session{
		Waves:    trace.NewWaves(frontier, width, job.Opts),
		id:       id,
		job:      job,
		assigned: map[int]*workerConn{},
		failed:   map[*workerConn]bool{},
		result:   make(chan SessionResult, 1),
	}
	s.fillPending()
	return s
}

// fillPending queues every open subtree of the current wave that no worker
// holds a lease on.
func (s *session) fillPending() {
	s.pending = s.pending[:0]
	lo, hi := s.Window()
	for i := lo; i < hi; i++ {
		if s.Open(i) && s.assigned[i] == nil {
			s.pending = append(s.pending, i)
		}
	}
}

// requeueIfOpen returns a forfeited subtree to the pending queue when the
// merge can still use its outcome.
func (s *session) requeueIfOpen(id int) {
	if s.Open(id) {
		s.pending = append(s.pending, id)
		sort.Ints(s.pending)
	}
}

// onOutcome records one complete subtree outcome (first result wins; an
// outcome that overshoots a cutoff is cleared again, see trace.Waves.Add).
// It reports whether the whole search is complete, and whether a wave
// barrier was crossed. Either way the pending queue then holds every open
// subtree of the current wave that is not leased: the next wave's, or the
// one subtree re-opened to run on exact bases.
func (s *session) onOutcome(id int, o *trace.SubtreeOutcome) (complete, crossed bool) {
	lo, _ := s.Window()
	if s.Add(id, o) {
		return true, false
	}
	s.fillPending()
	next, _ := s.Window()
	return false, next != lo
}

// restore replays a snapshot's completed outcomes through the wave protocol
// (see trace.Waves.Restore), so the session's table, bases and join log end
// up exactly as if those subtrees had just been leased and completed, and
// queues the rest of the current wave. Returns true when the
// snapshot already completes the whole search.
func (s *session) restore(outcomes []*trace.SubtreeOutcome) bool {
	n, complete := s.Restore(outcomes)
	s.resumed = n
	s.fillPending()
	return complete
}

// Progress is one session's resumable state in journal-serializable form:
// the completed subtree outcomes, indexed by frontier position (nil = not
// finished). Everything else a resumed session needs — the frontier itself,
// the merged closure table, the bases — is recomputed
// deterministically: the frontier from the job (planning is a pure
// function), table and bases by replaying the outcomes through the same
// wave barriers that built them, so a resumed report is byte-identical to
// an uninterrupted one.
type Progress struct {
	// Wave is the first unfinished wave's start index. Monotone over a
	// session's lifetime, which lets consumers racing snapshots keep the
	// newest.
	Wave int
	// Frontier is the planned frontier length: a cheap skew check. A
	// snapshot whose frontier disagrees with the resuming plan (changed
	// binary, changed options) is discarded.
	Frontier int
	Outcomes []*trace.SubtreeOutcome
}

// Completed counts the finished subtrees a snapshot carries.
func (p *Progress) Completed() int {
	n := 0
	for _, o := range p.Outcomes {
		if o != nil {
			n++
		}
	}
	return n
}

// progress snapshots the session's resumable state. The outcome slice is
// copied (the pointed-to outcomes are immutable once recorded), so the
// snapshot is stable against further session mutation.
func (s *session) progress() *Progress {
	lo, _ := s.Window()
	return &Progress{Wave: lo, Frontier: len(s.Frontier()), Outcomes: s.Outcomes()}
}
