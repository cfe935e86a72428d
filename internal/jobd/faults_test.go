// Daemon fault-tolerance tests: the journal stays bounded under churn, a
// restart resumes a mid-run job from its wave-barrier snapshot re-leasing
// only the unfinished frontier, and a seeded chaos schedule (crash, hang,
// flaky dials) never changes a byte of any fetched report.
package jobd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"revisionist/internal/dist"
	"revisionist/internal/dist/chaos"
	"revisionist/internal/dist/wire"
	"revisionist/internal/harness"
	"revisionist/internal/jobd"
	"revisionist/internal/jobd/crashfs"
	"revisionist/internal/protocol"
)

// TestQueueOnlineCompaction: an upsert-churned journal must stay bounded by
// the compaction threshold instead of growing per state change, and a
// reopen after heavy churn must reconstruct the live set exactly.
func TestQueueOnlineCompaction(t *testing.T) {
	dir := t.TempDir()
	q, err := jobd.OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	q.CompactAt = 4096
	recs := make([]*jobd.Record, 4)
	for i := range recs {
		recs[i] = &jobd.Record{ID: q.NextID(),
			Job:   wire.Job{Protocol: "firstvalue", Params: protocol.Params{N: 4}},
			State: jobd.StateQueued}
	}
	states := []jobd.JobState{jobd.StateQueued, jobd.StateRunning, jobd.StateDone}
	for round := 0; round < 300; round++ {
		rec := recs[round%len(recs)]
		rec.State = states[round%len(states)]
		if err := q.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "jobs.jsonl")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// 300 upserts of ~300-byte lines is ~90 KiB unbounded; compaction must
	// have kept the file within the threshold plus one append window.
	if fi.Size() > 2*q.CompactAt {
		t.Fatalf("journal grew to %d bytes despite CompactAt=%d", fi.Size(), q.CompactAt)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q2, err := jobd.OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if n := len(q2.List()); n != len(recs) {
		t.Fatalf("reopened queue lists %d records, want %d", n, len(recs))
	}
	for _, rec := range recs {
		got := q2.Get(rec.ID)
		if got == nil {
			t.Fatalf("record %s lost in compaction", rec.ID)
		}
		want := rec.State
		// Restart recovery re-queues running jobs; everything else must
		// survive verbatim.
		if want == jobd.StateRunning {
			want = jobd.StateQueued
		}
		if got.State != want {
			t.Fatalf("record %s reopened as %s, want %s", rec.ID, got.State, want)
		}
	}
}

// TestDaemonRestartResumesMidSubtree is the resume acceptance gate: a
// daemon killed mid-run restarts from the journaled wave-barrier snapshot,
// re-leases only the unfinished frontier (the resuming log line proves
// restored > 0), and the finished report is byte-identical to the solo run.
func TestDaemonRestartResumesMidSubtree(t *testing.T) {
	dir := t.TempDir()
	opts := harness.Options{Protocol: "kset", Params: protocol.Params{N: 4, K: 3},
		MaxDepth: 12, MaxViolations: 3, Prune: true, Symmetry: true}
	solo := soloWireReport(t, opts)
	job, err := harness.CheckJob(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: one paced worker (every frame delayed) so wave barriers pass
	// slowly enough to catch the job genuinely mid-run.
	td := startDaemon(t, jobd.Config{Dir: dir, MaxActive: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", td.addr)
		if err != nil {
			return
		}
		dist.Work(context.Background(),
			chaos.WrapConn(conn, chaos.Script{WriteDelay: 3 * time.Millisecond}),
			2, harness.Resolve)
	}()
	cl, err := jobd.Dial(td.addr)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := cl.Submit(job)
	if err != nil || ack.Err != "" {
		t.Fatalf("submit: %v / %s", err, ack.Err)
	}
	waitState(t, cl, ack.ID, "running")
	// Wait for a wave-barrier snapshot to reach the journal, then pull the
	// plug while the job is demonstrably unfinished.
	path := filepath.Join(dir, "jobs.jsonl")
	waitSnapshot(t, cl, ack.ID)
	cl.Close()
	td.shutdown(t)
	wg.Wait()

	// The journal's final word: interrupted, resumable, carrying a snapshot
	// that is neither empty nor complete.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec jobd.Record
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var r jobd.Record
		if err := json.Unmarshal([]byte(line), &r); err == nil && r.ID == ack.ID {
			rec = r
		}
	}
	if rec.State != jobd.StateInterrupted || !rec.Resumable || rec.Progress == nil {
		t.Fatalf("drained job journaled as %s (resumable=%v, progress=%v); want interrupted+resumable+snapshot",
			rec.State, rec.Resumable, rec.Progress != nil)
	}
	completed := rec.Progress.Completed()
	if completed == 0 || completed >= rec.Progress.Frontier {
		t.Fatalf("snapshot completed %d of %d subtrees; the test needs a genuine mid-run interrupt",
			completed, rec.Progress.Frontier)
	}

	// Phase 2: restart with a fast worker; the job must resume (the log line
	// names how much was restored) and finish byte-identical to solo.
	var mu sync.Mutex
	var logs []string
	td2 := startDaemon(t, jobd.Config{Dir: dir, MaxActive: 1,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}})
	worker(t, td2.addr, 2, &wg)
	cl2, err := jobd.Dial(td2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	waitState(t, cl2, ack.ID, "done")
	rep, err := cl2.Fetch(ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportJSON(t, rep.Report), reportJSON(t, solo); got != want {
		t.Fatalf("resumed report diverged from solo run:\nwant %s\ngot  %s", want, got)
	}
	mu.Lock()
	resumed := false
	for _, l := range logs {
		if strings.Contains(l, "resuming (") && !strings.Contains(l, "resuming (0/") {
			resumed = true
		}
	}
	mu.Unlock()
	if !resumed {
		t.Fatalf("restart never logged a non-empty resume; logs: %q", logs)
	}
	td2.shutdown(t)
	wg.Wait()
}

// TestDaemonKilledResumesFromDeltas: a daemon that dies without draining
// leaves only the journal bytes that were durable — and while a job runs,
// its snapshots reach the journal only as deltas, made durable by the
// group-commit timer. The power is cut (the durable bytes are copied) once
// a delta is durable; the restart folds the deltas, resumes with restored
// subtrees, and reports byte-identically to the solo run.
func TestDaemonKilledResumesFromDeltas(t *testing.T) {
	opts := harness.Options{Protocol: "kset", Params: protocol.Params{N: 4, K: 3},
		MaxDepth: 12, MaxViolations: 3, Prune: true, Symmetry: true}
	solo := soloWireReport(t, opts)
	job, err := harness.CheckJob(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: a paced worker on an in-memory filesystem whose durable bytes
	// are what a power cut would leave.
	m := crashfs.NewMem()
	td := startDaemon(t, jobd.Config{Dir: "q", FS: m, MaxActive: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", td.addr)
		if err != nil {
			return
		}
		dist.Work(context.Background(),
			chaos.WrapConn(conn, chaos.Script{WriteDelay: 3 * time.Millisecond}),
			2, harness.Resolve)
	}()
	cl, err := jobd.Dial(td.addr)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := cl.Submit(job)
	if err != nil || ack.Err != "" {
		t.Fatalf("submit: %v / %s", err, ack.Err)
	}
	waitSnapshot(t, cl, ack.ID)
	var journal []byte
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		journal = m.Durable(filepath.Join("q", "jobs.jsonl"))
		if bytes.Contains(journal, []byte(`{"Delta":{"ID":"`+ack.ID+`"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress delta became durable")
		}
	}
	cl.Close()
	td.shutdown(t)
	wg.Wait()
	if bytes.Contains(journal, []byte(`"Progress":`)) {
		t.Fatalf("a full progress snapshot reached the journal; want deltas only:\n%s", journal)
	}

	// Phase 2: restart on the durable bytes with a fast worker.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	td2 := startDaemon(t, jobd.Config{Dir: dir, MaxActive: 1,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}})
	worker(t, td2.addr, 2, &wg)
	cl2, err := jobd.Dial(td2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	waitState(t, cl2, ack.ID, "done")
	rep, err := cl2.Fetch(ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportJSON(t, rep.Report), reportJSON(t, solo); got != want {
		t.Fatalf("resumed report diverged from solo run:\nwant %s\ngot  %s", want, got)
	}
	mu.Lock()
	resumed := false
	for _, l := range logs {
		if strings.Contains(l, "resuming (") && !strings.Contains(l, "resuming (0/") {
			resumed = true
		}
	}
	mu.Unlock()
	if !resumed {
		t.Fatalf("restart never logged a non-empty resume; logs: %q", logs)
	}
	td2.shutdown(t)
	wg.Wait()
}

// TestDaemonChaosSoak runs the jobd acceptance scenario under a seeded fault
// schedule — one worker crashes and reconnects, one hangs until the
// heartbeat detector retires it, one needs several dial attempts — and every
// fetched report must still be byte-identical to its solo run.
func TestDaemonChaosSoak(t *testing.T) {
	const seed = 7
	plan := chaos.NewPlan(seed)
	crash, hang, flaky := plan.Crash(), plan.Hang(), plan.FlakyDials()

	cases := []harness.Options{
		{Protocol: "firstvalue", Params: protocol.Params{N: 4},
			MaxDepth: 12, MaxViolations: 3, Prune: true},
		{Protocol: "kset", Params: protocol.Params{N: 4, K: 3},
			MaxDepth: 12, MaxViolations: 3, Prune: true, Symmetry: true},
	}
	solos := make([]string, len(cases))
	for i, opts := range cases {
		solos[i] = reportJSON(t, soloWireReport(t, opts))
	}

	td := startDaemon(t, jobd.Config{MaxActive: len(cases),
		Liveness: dist.Liveness{HeartbeatEvery: 20 * time.Millisecond, HeartbeatMiss: 3}})
	ctx, cancel := context.WithCancel(context.Background())
	dial := func() (net.Conn, error) { return net.Dial("tcp", td.addr) }
	backoff := dist.Backoff{Base: 5 * time.Millisecond, Seed: seed}

	var wg sync.WaitGroup
	// Worker 1: crashes on its first connection, reconnects healthy.
	crashDialer := &chaos.Dialer{Dial: dial, Script: func(i int) chaos.Script {
		if i == 0 {
			return crash
		}
		return chaos.Script{}
	}}
	wg.Add(1)
	go func() {
		defer wg.Done()
		dist.WorkerLoop(ctx, crashDialer.DialConn, dist.WorkConfig{Slots: 2}, harness.Resolve, backoff)
	}()
	// Worker 2: hangs silently; only heartbeats can retire it.
	hungConn := make(chan *chaos.Conn, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := dial()
		if err != nil {
			hungConn <- nil
			return
		}
		hc := chaos.WrapConn(conn, hang)
		hungConn <- hc
		dist.Work(ctx, hc, 1, harness.Resolve)
	}()
	// Worker 3: its first dials flake; DialRetry's backoff absorbs them.
	flakyDialer := &chaos.Dialer{Dial: dial, FailFirst: flaky}
	wg.Add(1)
	go func() {
		defer wg.Done()
		dist.WorkerLoop(ctx, flakyDialer.DialConn, dist.WorkConfig{Slots: 2}, harness.Resolve, backoff)
	}()

	cl, err := jobd.Dial(td.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ids := make([]string, len(cases))
	for i, opts := range cases {
		job, err := harness.CheckJob(opts)
		if err != nil {
			t.Fatal(err)
		}
		ack, err := cl.Submit(job)
		if err != nil || ack.Err != "" {
			t.Fatalf("submit %s: %v / %s", opts.Protocol, err, ack.Err)
		}
		ids[i] = ack.ID
	}
	for i := range cases {
		waitState(t, cl, ids[i], "done")
		rep, err := cl.Fetch(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := reportJSON(t, rep.Report); got != solos[i] {
			t.Fatalf("job %s diverged from solo run under chaos seed %d:\nwant %s\ngot  %s",
				ids[i], seed, solos[i], got)
		}
	}
	cancel()
	if hc := <-hungConn; hc != nil {
		hc.Close() // release the goroutine parked in the scripted hang
	}
	td.shutdown(t)
	wg.Wait()
}
