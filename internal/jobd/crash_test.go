// The crash matrix: the tentpole property test of the journal's power-fail
// story. A deterministic queue workload (submits, state transitions,
// progress-snapshot deltas, forced compactions) is dry-run once against an
// in-memory crashfs to record its complete filesystem op schedule; then, for
// EVERY op in that schedule and every meaningful tear of it — partial write,
// partial fsync, unapplied or applied create/rename — the workload replays
// from scratch, the power dies at exactly that point, and the queue reopens
// from whatever bytes were durable. The reopened state must satisfy:
//
//   - every acked Put survives (an acked submission is durable at a state no
//     older than the acked one, with restart recovery applied),
//   - an unacked in-flight Put is either absent or present at exactly a
//     state the workload issued — never a mangled hybrid,
//   - no phantom records appear,
//   - a reopened record's Progress is the snapshot it held at one point the
//     workload left it in — the fold of a prefix of the deltas issued for
//     it, never a hybrid — and that point is no older than the last
//     completed Flush, so every flushed snapshot survives,
//   - the reopened queue accepts new work (the journal is appendable).
//
// Both sync policies run the full matrix: group commit moves the ack point,
// not the guarantee.
package jobd_test

import (
	"fmt"
	"reflect"
	"testing"

	"revisionist/internal/dist"
	"revisionist/internal/dist/wire"
	"revisionist/internal/jobd"
	"revisionist/internal/jobd/crashfs"
	"revisionist/internal/protocol"
	"revisionist/internal/sched"
	"revisionist/internal/trace"
)

// crashOracle tracks, per job id, the recovery-mapped states the workload
// issued (in Put order) and the index of the newest state known durable when
// the power died (-1 = no ack ever reached the client). Alongside, points
// lists every (state, snapshot) pair the job was left in — one per Put and
// one per PutProgress — and flushed indexes the newest point a completed
// fsync covered (-1 = none).
type crashOracle struct {
	order []string
	hist  map[string][]jobd.JobState
	acked map[string]int

	points  map[string][]crashPoint
	flushed map[string]int
}

// crashPoint is one journal-visible state of a job: its recovery-mapped
// state and the progress snapshot it carried.
type crashPoint struct {
	state    jobd.JobState
	progress *dist.Progress
}

// issue records the point rec is in after a Put or PutProgress.
func (o *crashOracle) issue(rec *jobd.Record) {
	if _, seen := o.points[rec.ID]; !seen {
		o.flushed[rec.ID] = -1
	}
	o.points[rec.ID] = append(o.points[rec.ID], crashPoint{recovered(rec), rec.Progress})
}

// synced marks every point issued so far durable: an fsync just completed.
func (o *crashOracle) synced() {
	for id, pts := range o.points {
		o.flushed[id] = len(pts) - 1
	}
}

// nextSnapshot extends prev the way a wave barrier does: the same frontier,
// a later wave, and up to two newly completed outcomes, each distinct so a
// reopened snapshot that mixed two points would show.
func nextSnapshot(rnd *sched.Random, prev *dist.Progress, wave int) *dist.Progress {
	const frontier = 8
	p := &dist.Progress{Wave: wave, Frontier: frontier, Outcomes: make([]*trace.SubtreeOutcome, frontier)}
	if prev != nil && len(prev.Outcomes) == frontier {
		copy(p.Outcomes, prev.Outcomes)
	}
	for k := 0; k < 2; k++ {
		if i := rnd.IntN(frontier); p.Outcomes[i] == nil {
			p.Outcomes[i] = &trace.SubtreeOutcome{Runs: 2*wave + k + 1, Exhausted: true}
		}
	}
	return p
}

// recovered maps a journaled state to what restart recovery yields for it.
func recovered(rec *jobd.Record) jobd.JobState {
	if rec.State == jobd.StateRunning || (rec.State == jobd.StateInterrupted && rec.Resumable) {
		return jobd.StateQueued
	}
	return rec.State
}

// runCrashWorkload replays the seed-determined workload against fs until it
// finishes or the armed crash kills it, returning the oracle of what was
// issued and what was acked. The workload mixes every journal-writing path:
// admission puts, lifecycle transitions, wave-barrier progress snapshots,
// explicit group-commit flushes, and (via a tiny CompactAt) several online
// compactions.
func runCrashWorkload(seed int64, fs crashfs.FS, mode jobd.SyncMode) *crashOracle {
	o := &crashOracle{hist: map[string][]jobd.JobState{}, acked: map[string]int{},
		points: map[string][]crashPoint{}, flushed: map[string]int{}}
	q, err := jobd.OpenQueue("q", jobd.WithFS(fs),
		jobd.WithSyncPolicy(jobd.SyncPolicy{Mode: mode, BatchPuts: 4}))
	if err != nil {
		return o // crashed during open: nothing was issued
	}
	defer q.Close()
	q.CompactAt = 700 // a few hundred bytes per record: compact several times

	var pending []struct {
		id  string
		idx int
	}
	ackPending := func() {
		for _, p := range pending {
			if p.idx > o.acked[p.id] {
				o.acked[p.id] = p.idx
			}
		}
		pending = pending[:0]
	}
	put := func(rec *jobd.Record) bool {
		err := q.Put(rec)
		// The append may have torn durable bytes whether or not Put errored:
		// always record the issued state.
		id := rec.ID
		if _, seen := o.hist[id]; !seen {
			o.order = append(o.order, id)
			o.acked[id] = -1
		}
		o.hist[id] = append(o.hist[id], recovered(rec))
		o.issue(rec)
		idx := len(o.hist[id]) - 1
		if err != nil {
			return false
		}
		if q.Dirty() == 0 {
			o.synced()
		}
		switch mode {
		case jobd.SyncBatch:
			pending = append(pending, struct {
				id  string
				idx int
			}{id, idx})
			if q.Dirty() == 0 {
				ackPending() // a compaction inside Put synced everything
			}
		default: // SyncEachPut: Put returning nil is the ack
			o.acked[id] = idx
		}
		return true
	}

	rnd := sched.NewRandom(seed)
	var live []*jobd.Record
	states := []jobd.JobState{jobd.StateRunning, jobd.StateDone, jobd.StateFailed,
		jobd.StateCanceled, jobd.StateInterrupted}
	for step := 0; step < 48; step++ {
		switch choice := rnd.IntN(10); {
		case choice < 4 || len(live) == 0: // submit
			rec := &jobd.Record{ID: q.NextID(),
				Session: fmt.Sprintf("s%02d", rnd.IntN(3)),
				Job: wire.Job{Protocol: "kset", Params: protocol.Params{N: 4, K: 3},
					Priority: 1 + rnd.IntN(9)},
				State: jobd.StateQueued}
			live = append(live, rec)
			if !put(rec) {
				return o
			}
		case choice < 7: // lifecycle transition
			rec := live[rnd.IntN(len(live))]
			rec.State = states[rnd.IntN(len(states))]
			rec.Resumable = rec.State == jobd.StateInterrupted
			if rec.State != jobd.StateInterrupted {
				rec.Progress = nil
			}
			if !put(rec) {
				return o
			}
		case choice < 9: // wave-barrier progress: acked transition, then a delta
			rec := live[rnd.IntN(len(live))]
			rec.State = jobd.StateRunning
			if !put(rec) {
				return o
			}
			err := q.PutProgress(rec.ID, nextSnapshot(rnd, rec.Progress, step))
			o.issue(rec)
			if err != nil {
				return o
			}
			if q.Dirty() == 0 {
				o.synced() // a compaction synced the delta
			}
		default: // explicit group commit
			if q.Flush() != nil {
				return o
			}
			ackPending()
			o.synced()
		}
	}
	if q.Flush() == nil {
		ackPending()
		o.synced()
	}
	return o
}

// tearsFor enumerates the meaningful tears of one op: none of its effect, a
// partial prefix (write/sync), its full effect with the crash landing right
// after (sync), or applied-vs-not (create/rename).
func tearsFor(op crashfs.Op) []int {
	switch op.Kind {
	case crashfs.OpWrite:
		return dedupe(0, op.Units/2)
	case crashfs.OpSync:
		return dedupe(0, 1, op.Units/2, op.Units)
	default: // create, rename
		return dedupe(0, 1)
	}
}

func dedupe(vals ...int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range vals {
		if v >= 0 && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func TestCrashMatrix(t *testing.T) {
	for _, seed := range []int64{1, 20260808} {
		for _, mode := range []jobd.SyncMode{jobd.SyncEachPut, jobd.SyncBatch} {
			t.Run(fmt.Sprintf("seed=%d/sync=%s", seed, mode), func(t *testing.T) {
				// Dry run: record the complete op schedule with no crash armed.
				dry := crashfs.NewMem()
				runCrashWorkload(seed, dry, mode)
				ops := dry.Ops()
				if len(ops) < 40 {
					t.Fatalf("workload issued only %d fs ops; too small for a meaningful matrix", len(ops))
				}
				points := 0
				for opIdx, op := range ops {
					for _, tear := range tearsFor(op) {
						points++
						m := crashfs.NewMem()
						m.CrashAfter(opIdx+1, tear)
						o := runCrashWorkload(seed, m, mode)
						m.PowerCut()
						m.Disarm()
						validateCrashPoint(t, m, o,
							fmt.Sprintf("crash at op %d/%d (%s %s, tear %d)",
								opIdx+1, len(ops), op.Kind, op.Name, tear))
						if t.Failed() {
							return
						}
					}
				}
				t.Logf("seed %d sync=%s: %d fs ops, %d crash points validated", seed, mode, len(ops), points)
			})
		}
	}
}

// validateCrashPoint reopens the queue from the durable bytes and checks the
// crash-consistency contract against the oracle.
func validateCrashPoint(t *testing.T, m *crashfs.Mem, o *crashOracle, at string) {
	t.Helper()
	q, err := jobd.OpenQueue("q", jobd.WithFS(m))
	if err != nil {
		t.Fatalf("%s: reopen failed: %v", at, err)
	}
	defer q.Close()
	for _, id := range o.order {
		hist, acked := o.hist[id], o.acked[id]
		rec := q.Get(id)
		if rec == nil {
			if acked >= 0 {
				t.Fatalf("%s: acked job %s (state %s) vanished", at, id, hist[acked])
			}
			if o.flushed[id] >= 0 {
				t.Fatalf("%s: flushed job %s vanished", at, id)
			}
			continue // unacked and absent: the clean outcome
		}
		lo := max(acked, 0)
		ok := false
		for i := lo; i < len(hist); i++ {
			if rec.State == hist[i] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("%s: job %s reopened as %q; issued states from ack point: %v",
				at, id, rec.State, hist[lo:])
		}
		// State and snapshot must come from one point, no older than the last
		// completed fsync: a flushed snapshot survives, and replay never mixes
		// a record line with deltas from elsewhere.
		pts := o.points[id]
		ok = false
		for i := max(o.flushed[id], 0); i < len(pts) && !ok; i++ {
			ok = rec.State == pts[i].state && reflect.DeepEqual(rec.Progress, pts[i].progress)
		}
		if !ok {
			t.Fatalf("%s: job %s reopened as %q with progress %s, which matches no point from the last flush on (%d of %d points)",
				at, id, rec.State, progressString(rec.Progress), len(pts)-max(o.flushed[id], 0), len(pts))
		}
	}
	for _, info := range q.List() {
		if _, known := o.hist[info.ID]; !known {
			t.Fatalf("%s: phantom record %s appeared from nowhere", at, info.ID)
		}
	}
	// The reopened queue must accept new work: the journal is appendable.
	if err := q.Put(&jobd.Record{ID: q.NextID(), State: jobd.StateQueued,
		Job: wire.Job{Protocol: "kset", Params: protocol.Params{N: 4, K: 3}}}); err != nil {
		t.Fatalf("%s: reopened queue rejected new work: %v", at, err)
	}
}

// progressString renders a snapshot compactly for failure messages.
func progressString(p *dist.Progress) string {
	if p == nil {
		return "none"
	}
	runs := make([]int, len(p.Outcomes))
	for i, o := range p.Outcomes {
		if o != nil {
			runs[i] = o.Runs
		}
	}
	return fmt.Sprintf("wave %d frontier %d runs %v", p.Wave, p.Frontier, runs)
}
