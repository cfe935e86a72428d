package dist

import (
	"sort"

	"revisionist/internal/dist/wire"
	"revisionist/internal/trace"
)

// session is the per-job coordinator state of one distributed exploration:
// the canonical subtree frontier, the wave cursor, the merged visited-state
// table with its append-only join log, the frozen budget bases, and the
// outcomes collected so far. Everything that makes a report deterministic
// lives here, scoped to one job — the fleet multiplexes many sessions over
// one worker population, and because leases are pure functions of
// (session state, subtree id), a job's merged report cannot depend on which
// other jobs shared the fleet. Only the fleet loop touches a session.
type session struct {
	id  string
	job wire.Job

	frontier [][]int
	width    int
	maxViol  int

	outcomes []*trace.SubtreeOutcome
	waveLo   int
	waveHi   int
	pending  []int // unassigned subtree ids of the current wave, ascending
	assigned map[int]*workerConn

	// table is the merged visited-state table; fpLog is its append-only join
	// log (each entry strictly raised the table), shipped incrementally to
	// per-job worker mirrors. done counts runs in completed waves: the frozen
	// budget base of the next wave. stopAfter is the smallest subtree known
	// to end the search.
	table     map[uint64]int
	fpLog     []trace.FpEntry
	done      int
	stopAfter int

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
	maxViol := job.Opts.MaxViolations
	if maxViol <= 0 {
		maxViol = 1
	}
	s := &session{
		id:        id,
		job:       job,
		frontier:  frontier,
		width:     width,
		maxViol:   maxViol,
		outcomes:  make([]*trace.SubtreeOutcome, len(frontier)),
		assigned:  map[int]*workerConn{},
		table:     map[uint64]int{},
		failed:    map[*workerConn]bool{},
		stopAfter: len(frontier), // no cutoff known
		result:    make(chan SessionResult, 1),
	}
	s.startWave(0)
	return s
}

// startWave opens the wave of subtrees [lo, lo+width).
func (s *session) startWave(lo int) {
	s.waveLo = lo
	s.waveHi = min(lo+s.width, len(s.frontier))
	s.pending = s.pending[:0]
	for i := s.waveLo; i < s.waveHi; i++ {
		s.pending = append(s.pending, i)
	}
}

// baseFor is the budget base of a lease for subtree id: a lower bound on the
// runs the merge will credit before it in canonical order. Pruned runs must
// use the base frozen at the wave start (runs in completed waves) — it is
// part of the report's identity. Unpruned runs are free to use a tighter
// bound, so workers stop sooner under a MaxRuns budget: the runs of already
// completed earlier subtrees, like the in-process explorer's budgetBase.
func (s *session) baseFor(id int) int {
	if s.job.Opts.Prune {
		return s.done
	}
	base := 0
	for j := 0; j < id; j++ {
		if o := s.outcomes[j]; o != nil {
			base += o.Runs
		}
	}
	return base
}

// requeueIfOpen returns a forfeited subtree to the pending queue when the
// merge can still reach it (no outcome yet, inside the current wave, not
// past a known cutoff).
func (s *session) requeueIfOpen(id int) {
	if s.outcomes[id] == nil && id >= s.waveLo && id <= s.stopAfter {
		s.pending = append(s.pending, id)
		sort.Ints(s.pending)
	}
}

// onOutcome records one complete subtree outcome (first result wins —
// duplicates from re-leased subtrees are identical by determinism) and
// reports whether the whole search is complete.
func (s *session) onOutcome(id int, o *trace.SubtreeOutcome) bool {
	if id >= s.waveLo && id < s.waveHi && s.outcomes[id] == nil {
		s.outcomes[id] = o
		if id < s.stopAfter && o.Cut(s.maxViol) {
			s.stopAfter = id
		}
	}
	return s.advance()
}

// advance checks the wave barrier: once every subtree the merge can reach has
// an outcome, either the search ends inside this wave (a cutoff: merge now,
// publish nothing — matching the in-process explorer, whose final wave never
// publishes), or the wave's closures are max-merged into the table, its runs
// credited to the frozen base, and the next wave opened.
func (s *session) advance() bool {
	hi := min(s.waveHi, s.stopAfter+1)
	for i := s.waveLo; i < hi; i++ {
		if s.outcomes[i] == nil {
			return false
		}
	}
	if s.stopAfter < s.waveHi {
		return true
	}
	for i := s.waveLo; i < s.waveHi; i++ {
		o := s.outcomes[i]
		s.done += o.Runs
		for _, e := range o.Closures {
			if cur, ok := s.table[e.Fp]; !ok || e.Rem > cur {
				s.table[e.Fp] = e.Rem
				s.fpLog = append(s.fpLog, e)
			}
		}
	}
	if s.waveHi >= len(s.frontier) {
		return true
	}
	s.startWave(s.waveHi)
	return false
}

// Progress is one session's resumable state in journal-serializable form:
// the completed subtree outcomes, indexed by frontier position (nil = not
// finished). Everything else a resumed session needs — the frontier itself,
// the merged closure table, the frozen budget bases — is recomputed
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
	return &Progress{
		Wave:     s.waveLo,
		Frontier: len(s.frontier),
		Outcomes: append([]*trace.SubtreeOutcome(nil), s.outcomes...),
	}
}

// unpend removes one subtree from the pending queue (it was restored from a
// snapshot, not leased).
func (s *session) unpend(id int) {
	for i, p := range s.pending {
		if p == id {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// restore replays a snapshot's completed outcomes through the ordinary wave
// machinery — onOutcome, barriers, closure max-merge and all — so the
// session's table, budget bases, and fpLog end up exactly as if those
// subtrees had just been leased and completed. Returns true when the
// snapshot already completes the whole search. Only outcomes inside the
// current wave window apply on each pass (advance shifts the window), hence
// the rescan loop; outcomes past a discovered cutoff stay ignored, exactly
// as live results would be.
func (s *session) restore(outcomes []*trace.SubtreeOutcome) bool {
	for {
		applied := false
		for i := s.waveLo; i < s.waveHi && i < len(outcomes); i++ {
			o := outcomes[i]
			if o == nil || s.outcomes[i] != nil {
				continue
			}
			s.unpend(i)
			s.resumed++
			if s.onOutcome(i, o) {
				return true
			}
			applied = true
			break
		}
		if !applied {
			return false
		}
	}
}

// merge folds the outcomes into the final report. An exhausted pruned search
// published every wave, so the merged table holds the union of all closures:
// the exact distinct-configuration count, exactly as in the in-process
// pruned explorer. With interrupted set, missing outcomes yield the
// partial report alongside trace.ErrInterrupted.
func (s *session) merge(interrupted bool) (*trace.ExploreReport, error) {
	rep, err := trace.MergeOutcomes(s.frontier, s.outcomes, s.job.Opts, interrupted)
	if err == nil && s.job.Opts.Prune && rep.Exhausted {
		rep.Distinct = len(s.table)
	}
	return rep, err
}
