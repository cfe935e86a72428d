// Queue robustness tests: compaction failure paths keep the journal durable
// and loud, the loader tolerates any journal content, and dispatch is
// weighted fair share across sessions instead of a FIFO scan.
package jobd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"revisionist/internal/dist"
	"revisionist/internal/dist/wire"
	"revisionist/internal/jobd"
	"revisionist/internal/jobd/crashfs"
	"revisionist/internal/protocol"
	"revisionist/internal/trace"
)

// flakyFS wraps a crashfs.FS with on-demand failures of single operations —
// transient I/O errors (disk full, permissions), unlike crashfs.Mem's
// terminal power cuts.
type flakyFS struct {
	crashfs.FS
	failCreate     bool
	failOpenAppend bool
}

func (f *flakyFS) Create(name string) (crashfs.File, error) {
	if f.failCreate {
		f.failCreate = false
		return nil, fmt.Errorf("flakyfs: injected create failure for %s", name)
	}
	return f.FS.Create(name)
}

func (f *flakyFS) OpenAppend(name string) (crashfs.File, error) {
	if f.failOpenAppend {
		f.failOpenAppend = false
		return nil, fmt.Errorf("flakyfs: injected open-append failure for %s", name)
	}
	return f.FS.OpenAppend(name)
}

func queuedRec(q *jobd.Queue, sess string, prio int) *jobd.Record {
	return &jobd.Record{ID: q.NextID(), Session: sess,
		Job:   wire.Job{Protocol: "firstvalue", Params: protocol.Params{N: 4}, Priority: prio},
		State: jobd.StateQueued}
}

// A failed compaction (tmp create dies) must leave the old journal — and the
// queue's durability — fully intact: Put keeps succeeding, and a reopen sees
// every record. This is the regression test for the bug where compact()
// closed the live journal handle before writing the tmp file, silently
// degrading the queue to memory-only on any compaction error.
func TestQueueCompactFailureKeepsJournalDurable(t *testing.T) {
	dir := t.TempDir()
	fs := &flakyFS{FS: crashfs.OS}
	q, err := jobd.OpenQueue(dir, jobd.WithFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	q.CompactAt = 512
	var recs []*jobd.Record
	put := func() {
		rec := queuedRec(q, "", 0)
		recs = append(recs, rec)
		if err := q.Put(rec); err != nil {
			t.Fatalf("Put %s: %v", rec.ID, err)
		}
	}
	put()
	fs.failCreate = true // the next compaction's tmp create dies
	for i := 0; i < 20; i++ {
		put() // crosses CompactAt: compaction fails, Puts must not
	}
	if fs.failCreate {
		t.Fatal("compaction never triggered: the test journal stayed under CompactAt")
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q2, err := jobd.OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	for _, rec := range recs {
		if q2.Get(rec.ID) == nil {
			t.Fatalf("record %s lost across the failed compaction", rec.ID)
		}
	}
}

// If the compacted journal cannot be reopened for appending, the queue must
// fail loudly on every subsequent Put — never silently run memory-only.
func TestQueueUnappendableAfterCompactionIsLoud(t *testing.T) {
	dir := t.TempDir()
	fs := &flakyFS{FS: crashfs.OS}
	q, err := jobd.OpenQueue(dir, jobd.WithFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	q.CompactAt = 512
	if err := q.Put(queuedRec(q, "", 0)); err != nil {
		t.Fatal(err)
	}
	fs.failOpenAppend = true
	sawErr := false
	for i := 0; i < 20 && !sawErr; i++ {
		sawErr = q.Put(queuedRec(q, "", 0)) != nil
	}
	if !sawErr {
		t.Fatal("no Put surfaced the unappendable journal")
	}
	if err := q.Put(queuedRec(q, "", 0)); err == nil {
		t.Fatal("Put succeeded on a queue whose journal was lost")
	}
	q.Close()
}

// Opening a queue on a fresh directory has nothing to compact, so it must
// not pay for a compaction: no Sync and no Rename, only the journal's
// Create. The journal it opens must still take appends that a reopen reads.
func TestQueueOpenFreshDirSkipsCompaction(t *testing.T) {
	m := crashfs.NewMem()
	q, err := jobd.OpenQueue("q", jobd.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range m.Ops() {
		if op.Kind == crashfs.OpSync || op.Kind == crashfs.OpRename {
			t.Fatalf("opening a fresh journal issued %s %s; all ops: %v", op.Kind, op.Name, m.Ops())
		}
	}
	rec := queuedRec(q, "", 0)
	if err := q.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	m.PowerCut()
	q2, err := jobd.OpenQueue("q", jobd.WithFS(m))
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if q2.Get(rec.ID) == nil {
		t.Fatalf("record %s put on a fresh journal lost across a power cut", rec.ID)
	}
}

// The loader must tolerate any journal content: garbage lines, oversized
// lines, and a torn final line are each skipped with a count, never a failed
// open — a corrupt journal can cost records, but it cannot brick the daemon.
func TestQueueLoadSkipsGarbageOversizedAndTorn(t *testing.T) {
	dir := t.TempDir()
	mk := func(id string) string {
		b, err := json.Marshal(&jobd.Record{ID: id,
			Job:   wire.Job{Protocol: "firstvalue", Params: protocol.Params{N: 4}},
			State: jobd.StateQueued})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	oversized := strings.Replace(mk("j0002"), `"firstvalue"`,
		`"`+strings.Repeat("x", 400)+`"`, 1)
	journal := strings.Join([]string{
		mk("j0001"),
		oversized,         // exceeds the test's MaxLine: skipped
		"not json at all", // garbage: skipped
		mk("j0003"),
		mk("j0004")[:20], // torn final line, no trailing newline
	}, "\n")
	if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs []string
	q, err := jobd.OpenQueue(dir, jobd.WithMaxLine(300),
		jobd.WithQueueLog(func(format string, args ...any) {
			logs = append(logs, fmt.Sprintf(format, args...))
		}))
	if err != nil {
		t.Fatalf("a corrupt journal failed the open: %v", err)
	}
	defer q.Close()
	if q.LoadSkipped != 3 {
		t.Fatalf("LoadSkipped = %d, want 3 (oversized, garbage, torn); log: %q", q.LoadSkipped, logs)
	}
	for _, id := range []string{"j0001", "j0003"} {
		if q.Get(id) == nil {
			t.Fatalf("intact record %s lost among the debris", id)
		}
	}
	for _, id := range []string{"j0002", "j0004"} {
		if q.Get(id) != nil {
			t.Fatalf("debris record %s resurrected", id)
		}
	}
	if len(logs) != 3 {
		t.Fatalf("want one diagnostic per skipped line, got %q", logs)
	}
	// A fresh id must not collide with the survivors.
	if id := q.NextID(); id != "j0004" {
		t.Fatalf("NextID after load = %s, want j0004", id)
	}
}

// Single-session dispatch is priority-then-FIFO.
func TestQueueDispatchPriorityWithinSession(t *testing.T) {
	q, err := jobd.OpenQueue("")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]string{}
	// Admission order: default(5), 9, 9, 1 — dispatch must be 9, 9, 5, 1.
	order := []struct {
		name string
		prio int
	}{{"def", 0}, {"hi1", 9}, {"hi2", 9}, {"lo", 1}}
	for _, o := range order {
		rec := queuedRec(q, "s1", o.prio)
		ids[o.name] = rec.ID
		if err := q.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{ids["hi1"], ids["hi2"], ids["def"], ids["lo"]}
	for i, w := range want {
		rec := q.NextDispatch()
		if rec == nil || rec.ID != w {
			t.Fatalf("dispatch %d = %v, want %s", i, rec, w)
		}
	}
	if q.NextDispatch() != nil || q.QueuedDepth() != 0 {
		t.Fatal("drained queue still dispatches")
	}
}

// Across sessions, dispatch share is proportional to priority: a priority-9
// session gets 9 dispatches for each one a priority-1 session gets.
func TestQueueDispatchWeightedFairShare(t *testing.T) {
	q, err := jobd.OpenQueue("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := q.Put(queuedRec(q, "heavy", 9)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := q.Put(queuedRec(q, "light", 1)); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 20; i++ {
		rec := q.NextDispatch()
		if rec == nil {
			t.Fatalf("dispatch %d came up empty", i)
		}
		counts[rec.Session]++
	}
	if counts["heavy"] != 18 || counts["light"] != 2 {
		t.Fatalf("first 20 dispatches split %v, want heavy=18 light=2 (9:1 shares)", counts)
	}
}

// A session that enqueues after sitting idle joins at the current virtual
// time: it does not bank credit and burst ahead of sessions that kept the
// fleet busy.
func TestQueueDispatchNoIdleCredit(t *testing.T) {
	q, err := jobd.OpenQueue("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := q.Put(queuedRec(q, "early", 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if rec := q.NextDispatch(); rec == nil || rec.Session != "early" {
			t.Fatalf("warm-up dispatch %d = %v", i, rec)
		}
	}
	for i := 0; i < 10; i++ {
		if err := q.Put(queuedRec(q, "late", 0)); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		counts[q.NextDispatch().Session]++
	}
	if counts["late"] != 5 || counts["early"] != 5 {
		t.Fatalf("post-join dispatches split %v, want an even 5/5 split, not a burst", counts)
	}
}

// Cancelling a queued job removes it from dispatch (lazily) and from the
// depth count.
func TestQueueDispatchSkipsCanceled(t *testing.T) {
	q, err := jobd.OpenQueue("")
	if err != nil {
		t.Fatal(err)
	}
	a, b := queuedRec(q, "s", 0), queuedRec(q, "s", 0)
	for _, r := range []*jobd.Record{a, b} {
		if err := q.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	a.State = jobd.StateCanceled
	if err := q.Put(a); err != nil {
		t.Fatal(err)
	}
	if d := q.QueuedDepth(); d != 1 {
		t.Fatalf("QueuedDepth = %d after cancel, want 1", d)
	}
	if rec := q.NextDispatch(); rec == nil || rec.ID != b.ID {
		t.Fatalf("dispatch = %v, want the surviving job %s", rec, b.ID)
	}
	if q.NextDispatch() != nil {
		t.Fatal("canceled job dispatched")
	}
}

// The dispatch index is rebuilt from the journal: queued records (including
// restart-recovered running ones) dispatch after a reopen, in their sessions.
func TestQueueDispatchSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	q, err := jobd.OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := queuedRec(q, "s1", 0), queuedRec(q, "s2", 9)
	for _, r := range []*jobd.Record{a, b} {
		if err := q.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	a.State = jobd.StateRunning // a restart must re-queue this one
	if err := q.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q2, err := jobd.OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if d := q2.QueuedDepth(); d != 2 {
		t.Fatalf("reopened QueuedDepth = %d, want 2", d)
	}
	got := map[string]bool{}
	for rec := q2.NextDispatch(); rec != nil; rec = q2.NextDispatch() {
		got[rec.ID] = true
	}
	if !got[a.ID] || !got[b.ID] {
		t.Fatalf("reopened dispatch yielded %v, want both %s and %s", got, a.ID, b.ID)
	}
}

// deltaLines returns the journal a queue writes for one running job and three
// wave-barrier snapshots: the record line, then one delta per snapshot. The
// first two share a frontier of 3; the third has frontier 2, so its delta
// disagrees with the snapshot before it. The record is kept small so that
// folded snapshots fit FuzzQueueLoad's 512-byte line cap.
func deltaLines(tb testing.TB) [][]byte {
	tb.Helper()
	m := crashfs.NewMem()
	q, err := jobd.OpenQueue("q", jobd.WithFS(m))
	if err != nil {
		tb.Fatal(err)
	}
	if err := q.Put(&jobd.Record{ID: "j0001", State: jobd.StateRunning}); err != nil {
		tb.Fatal(err)
	}
	done := func(runs int) *trace.SubtreeOutcome {
		return &trace.SubtreeOutcome{Runs: runs, Exhausted: true}
	}
	for _, p := range []*dist.Progress{
		{Wave: 1, Frontier: 3, Outcomes: []*trace.SubtreeOutcome{done(1), nil, nil}},
		{Wave: 3, Frontier: 3, Outcomes: []*trace.SubtreeOutcome{done(1), nil, done(2)}},
		{Wave: 1, Frontier: 2, Outcomes: []*trace.SubtreeOutcome{done(3), nil}},
	} {
		if err := q.PutProgress("j0001", p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := q.Close(); err != nil {
		tb.Fatal(err)
	}
	lines := bytes.SplitAfter(m.Durable(filepath.Join("q", "jobs.jsonl")), []byte("\n"))
	if len(lines) != 5 || len(lines[4]) != 0 {
		tb.Fatalf("want a record line and three deltas, got %q", lines)
	}
	return lines[:4]
}

// A delta line must read, to a loader that knows only full records, as a
// record with no id — which that loader skips — rather than as an update
// that would replace the job with an empty one.
func TestProgressDeltaDecodesAsAnonymousRecord(t *testing.T) {
	for _, line := range deltaLines(t)[1:] {
		var rec jobd.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("delta line %s does not decode as a record: %v", line, err)
		}
		if rec.ID != "" || rec.Progress != nil {
			t.Fatalf("delta line %s decodes as record %q (progress %v); want an anonymous, empty one",
				line, rec.ID, rec.Progress != nil)
		}
	}
}

// Replaying a record and its deltas rebuilds the snapshot the writer held,
// and a delta with a new frontier starts a fresh snapshot.
func TestQueueFoldsProgressDeltas(t *testing.T) {
	lines := deltaLines(t)
	for _, tc := range []struct {
		name     string
		journal  [][]byte
		wave     int
		frontier int
		runs     []int // Runs of each outcome slot; 0 = empty
	}{
		{"two deltas", lines[:3], 3, 3, []int{1, 0, 2}},
		{"frontier change", lines, 1, 2, []int{3, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := crashfs.NewMem()
			w, err := m.Create(filepath.Join("q", "jobs.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			w.Write(bytes.Join(tc.journal, nil))
			w.Sync()
			w.Close()
			q, err := jobd.OpenQueue("q", jobd.WithFS(m))
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			p := q.Get("j0001").Progress
			if p == nil || p.Wave != tc.wave || p.Frontier != tc.frontier || len(p.Outcomes) != len(tc.runs) {
				t.Fatalf("replayed snapshot %+v; want wave %d frontier %d", p, tc.wave, tc.frontier)
			}
			for i, o := range p.Outcomes {
				got := 0
				if o != nil {
					got = o.Runs
				}
				if got != tc.runs[i] {
					t.Fatalf("slot %d replayed with runs %d; want %d", i, got, tc.runs[i])
				}
			}
			if q.LoadSkipped != 0 {
				t.Fatalf("replay skipped %d lines of a well-formed journal", q.LoadSkipped)
			}
		})
	}
}

// progressSets summarizes every record's snapshot — Wave, Frontier and which
// outcome slots are set — for the fuzz round-trip.
func progressSets(q *jobd.Queue) map[string]string {
	out := map[string]string{}
	for _, info := range q.List() {
		p := q.Get(info.ID).Progress
		if p == nil {
			out[info.ID] = "none"
			continue
		}
		var set []int
		for i, o := range p.Outcomes {
			if o != nil {
				set = append(set, i)
			}
		}
		out[info.ID] = fmt.Sprintf("wave %d frontier %d slots %d set %v", p.Wave, p.Frontier, len(p.Outcomes), set)
	}
	return out
}

// FuzzQueueLoad: no journal bytes may panic the loader or fail the open, and
// whatever survives the load must round-trip through the open-time
// compaction — a second open sees the identical live set and the identical
// progress snapshots.
func FuzzQueueLoad(f *testing.F) {
	mk := func(id string, state jobd.JobState) []byte {
		b, _ := json.Marshal(&jobd.Record{ID: id,
			Job:   wire.Job{Protocol: "kset", Params: protocol.Params{N: 4, K: 3}, Priority: 7},
			State: state, Session: "s001"})
		return b
	}
	valid := append(append(mk("j0001", jobd.StateQueued), '\n'), append(mk("j0002", jobd.StateDone), '\n')...)
	f.Add(valid)
	f.Add(append(valid, mk("j0003", jobd.StateRunning)[:25]...)) // torn final line
	f.Add([]byte("garbage\n{\"ID\":\"\"}\n"))
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', '{'})
	f.Add(append([]byte(strings.Repeat("y", 600)+"\n"), valid...))
	// A record carrying a progress snapshot, as an earlier build journaled it.
	progress, err := os.ReadFile(filepath.Join("testdata", "progress_record.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(progress)
	// Progress deltas: a running record and two of them, a delta with no
	// record before it, one whose Frontier disagrees with the record's
	// snapshot, one after the record finished, and a torn one at the end.
	d := deltaLines(f)
	done := append(mk("j0001", jobd.StateDone), '\n')
	f.Add(bytes.Join(d[:3], nil))
	f.Add(d[1])
	f.Add(bytes.Join([][]byte{d[0], d[1], d[3]}, nil))
	f.Add(bytes.Join([][]byte{done, d[1]}, nil))
	f.Add(bytes.Join([][]byte{d[0], d[1], d[2][:len(d[2])/2]}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		// An in-memory crashfs keeps the fuzzer fast: no temp dirs, no real
		// fsyncs — the loader and compactor see identical bytes either way.
		m := crashfs.NewMem()
		w, err := m.Create(filepath.Join("q", "jobs.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		w.Close()
		q, err := jobd.OpenQueue("q", jobd.WithFS(m), jobd.WithMaxLine(512))
		if err != nil {
			t.Fatalf("journal bytes failed the open: %v", err)
		}
		first, firstProgress := q.List(), progressSets(q)
		if err := q.Close(); err != nil {
			t.Fatalf("close after load: %v", err)
		}
		q2, err := jobd.OpenQueue("q", jobd.WithFS(m), jobd.WithMaxLine(512))
		if err != nil {
			t.Fatalf("compacted journal failed to reopen: %v", err)
		}
		second, secondProgress := q2.List(), progressSets(q2)
		q2.Close()
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("live set did not round-trip compaction:\nfirst  %+v\nsecond %+v", first, second)
		}
		if !reflect.DeepEqual(firstProgress, secondProgress) {
			t.Fatalf("progress did not round-trip compaction:\nfirst  %v\nsecond %v", firstProgress, secondProgress)
		}
	})
}

// BenchmarkQueuePut measures journal throughput under the three sync
// policies on the real filesystem — the number that justifies group commit.
func BenchmarkQueuePut(b *testing.B) {
	for _, mode := range []jobd.SyncMode{jobd.SyncEachPut, jobd.SyncBatch, jobd.SyncNever} {
		b.Run(mode.String(), func(b *testing.B) {
			dir := b.TempDir()
			q, err := jobd.OpenQueue(dir, jobd.WithSyncPolicy(jobd.SyncPolicy{Mode: mode}))
			if err != nil {
				b.Fatal(err)
			}
			defer q.Close()
			recs := make([]*jobd.Record, 16)
			for i := range recs {
				recs[i] = queuedRec(q, "bench", 0)
			}
			states := []jobd.JobState{jobd.StateQueued, jobd.StateRunning, jobd.StateDone}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := recs[i%len(recs)]
				rec.State = states[i%len(states)]
				if err := q.Put(rec); err != nil {
					b.Fatal(err)
				}
				// Group-commit mode flushes the way the daemon does: when a
				// batch fills (the timer path syncs sooner in practice).
				if mode == jobd.SyncBatch && q.Dirty() >= 64 {
					if err := q.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := q.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
