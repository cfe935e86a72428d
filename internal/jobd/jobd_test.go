// Daemon tests: the job-lifecycle API end to end over real TCP — submission
// validation, concurrent jobs sharing one worker fleet with byte-identical
// reports, worker death mid-overlap, cancellation, graceful drain into
// resumable state, and restart recovery. These run under -race in CI (make
// race covers this package).
package jobd_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revisionist/internal/dist"
	"revisionist/internal/dist/wire"
	"revisionist/internal/harness"
	"revisionist/internal/jobd"
	"revisionist/internal/protocol"
	"revisionist/internal/trace"
)

// testDaemon is one running daemon plus its lifecycle plumbing.
type testDaemon struct {
	d      *jobd.Daemon
	addr   string
	cancel context.CancelFunc
	runErr chan error
	ln     net.Listener
}

// startDaemon builds and runs a daemon on a loopback listener.
func startDaemon(t *testing.T, cfg jobd.Config) *testDaemon {
	t.Helper()
	if cfg.Resolve == nil {
		cfg.Resolve = harness.Resolve
	}
	if cfg.Validate == nil {
		cfg.Validate = harness.ValidateJob
	}
	d, err := jobd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	td := &testDaemon{d: d, addr: ln.Addr().String(), cancel: cancel, runErr: make(chan error, 1), ln: ln}
	go func() { td.runErr <- d.Run(ctx) }()
	go d.Serve(ln)
	return td
}

// shutdown gracefully stops the daemon and waits for Run to return.
func (td *testDaemon) shutdown(t *testing.T) {
	t.Helper()
	td.cancel()
	select {
	case err := <-td.runErr:
		if err != nil {
			t.Fatalf("daemon Run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain in time")
	}
	td.ln.Close()
}

// worker connects one in-process worker to the daemon.
func worker(t *testing.T, addr string, slots int, wg *sync.WaitGroup) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		dist.Work(context.Background(), conn, slots, harness.Resolve)
	}()
}

// killConn closes its connection after a fixed number of frames, simulating
// a worker dying mid-run (each frame is a header write plus a body write).
type killConn struct {
	net.Conn
	writes atomic.Int64
	after  int64
}

func (k *killConn) Write(p []byte) (int, error) {
	if k.writes.Add(1) > 2*k.after {
		k.Conn.Close()
		return 0, errors.New("killed")
	}
	return k.Conn.Write(p)
}

// waitState polls until the job reaches one of the states.
func waitState(t *testing.T, cl *jobd.Client, id string, states ...string) wire.JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, err := cl.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		for _, s := range states {
			if info.State == s {
				return *info
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, states)
	return wire.JobInfo{}
}

// waitSnapshot polls until the running job id reports a wave-barrier
// snapshot (Info.Wave > 0). The daemon sets it in the same loop action that
// appends the snapshot's delta, so by then the bytes are in the journal.
func waitSnapshot(t *testing.T, cl *jobd.Client, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, err := cl.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if info.Wave > 0 {
			return
		}
		if info.State != "queued" && info.State != "running" {
			t.Fatalf("job %s reached %s before any progress snapshot", id, info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no progress snapshot ever reached the journal")
}

// soloWireReport runs the same check single-process and converts it to wire
// form — the byte-identity oracle.
func soloWireReport(t *testing.T, opts harness.Options) *wire.Report {
	t.Helper()
	rep, err := harness.Check(opts)
	if err != nil {
		var viol *harness.ViolationsError
		if !errors.As(err, &viol) {
			t.Fatal(err)
		}
	}
	return wire.ReportOf(rep.Explore)
}

func reportJSON(t *testing.T, r *wire.Report) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDaemonConcurrentJobsDeterministic is the acceptance gate: two jobs of
// different protocols submitted to one daemon, sharing a TCP worker fleet in
// which one worker dies mid-run — each fetched report byte-identical to its
// solo single-process run, each witness present iff violations were found.
func TestDaemonConcurrentJobsDeterministic(t *testing.T) {
	optsFV := harness.Options{Protocol: "firstvalue", Params: protocol.Params{N: 4},
		MaxDepth: 12, MaxViolations: 3, Prune: true}
	optsKS := harness.Options{Protocol: "kset", Params: protocol.Params{N: 4, K: 3},
		MaxDepth: 12, MaxViolations: 3, Prune: true, Symmetry: true}
	soloFV := soloWireReport(t, optsFV)
	soloKS := soloWireReport(t, optsKS)

	td := startDaemon(t, jobd.Config{MaxActive: 2})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the victim worker: dies after hello + one result
		defer wg.Done()
		conn, err := net.Dial("tcp", td.addr)
		if err != nil {
			return
		}
		dist.Work(context.Background(), &killConn{Conn: conn, after: 2}, 1, harness.Resolve)
	}()
	worker(t, td.addr, 2, &wg)

	cl, err := jobd.Dial(td.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	jobFV, err := harness.CheckJob(optsFV)
	if err != nil {
		t.Fatal(err)
	}
	jobKS, err := harness.CheckJob(optsKS)
	if err != nil {
		t.Fatal(err)
	}
	ackFV, err := cl.Submit(jobFV)
	if err != nil || ackFV.Err != "" {
		t.Fatalf("submit fv: %v / %s", err, ackFV.Err)
	}
	ackKS, err := cl.Submit(jobKS)
	if err != nil || ackKS.Err != "" {
		t.Fatalf("submit ks: %v / %s", err, ackKS.Err)
	}

	waitState(t, cl, ackFV.ID, "done")
	waitState(t, cl, ackKS.ID, "done")

	for _, c := range []struct {
		id   string
		solo *wire.Report
	}{{ackFV.ID, soloFV}, {ackKS.ID, soloKS}} {
		rep, err := cl.Fetch(c.id)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reportJSON(t, rep.Report), reportJSON(t, c.solo); got != want {
			t.Fatalf("job %s report diverged from solo run:\nwant %s\ngot  %s", c.id, want, got)
		}
		if len(c.solo.Violations) > 0 {
			if rep.Witness == nil || len(rep.Witness.Violations) != len(c.solo.Violations) {
				t.Fatalf("job %s: witness missing or wrong (%+v)", c.id, rep.Witness)
			}
		} else if rep.Witness != nil {
			t.Fatalf("job %s: clean check grew a witness", c.id)
		}
	}

	jobs, err := cl.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("want 2 jobs listed, got %d", len(jobs))
	}
	td.shutdown(t)
	wg.Wait()
}

// TestDaemonWitnessMatchesModelcheck pins the promise that a job's witness
// artifact is the same document modelcheck -witness writes for the same
// check. A job submitted with no engine named records the one engine, as
// the file does.
func TestDaemonWitnessMatchesModelcheck(t *testing.T) {
	opts := harness.Options{Protocol: "firstvalue-consensus", Params: protocol.Params{N: 2},
		MaxDepth: 12, MaxViolations: 3}
	rep, err := harness.Check(opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "witness.json")
	if err := harness.WriteWitness(path, rep, opts.MaxDepth); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file wire.Witness
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}

	td := startDaemon(t, jobd.Config{})
	var wg sync.WaitGroup
	worker(t, td.addr, 2, &wg)
	cl, err := jobd.Dial(td.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	job, err := harness.CheckJob(opts)
	if err != nil {
		t.Fatal(err)
	}
	job.Opts.Engine = ""
	ack, err := cl.Submit(job)
	if err != nil || ack.Err != "" {
		t.Fatalf("submit: %v / %s", err, ack.Err)
	}
	waitState(t, cl, ack.ID, "done")
	fetched, err := cl.Fetch(ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fetched.Witness == nil {
		t.Fatal("violating job has no witness")
	}
	if fetched.Witness.Engine != file.Engine {
		t.Fatalf("witness Engine: checkd %q, modelcheck %q", fetched.Witness.Engine, file.Engine)
	}
	got, err := json.Marshal(fetched.Witness)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&file)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("witness documents differ:\ncheckd     %s\nmodelcheck %s", got, want)
	}
	td.shutdown(t)
	wg.Wait()
}

// TestDaemonValidationOverWire pins the admission check across the
// transport: a hostile submission is rejected with structured field errors
// in the ack, and nothing is queued.
func TestDaemonValidationOverWire(t *testing.T) {
	td := startDaemon(t, jobd.Config{})
	cl, err := jobd.Dial(td.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ack, err := cl.Submit(wire.Job{Protocol: "kset", Params: protocol.Params{N: 4, K: 9},
		Opts: trace.ExploreOpts{MaxDepth: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.ID != "" || ack.Err == "" {
		t.Fatalf("hostile submit accepted: %+v", ack)
	}
	found := false
	for _, f := range ack.Fields {
		if f.Field == "k" {
			found = true
		}
	}
	if !found {
		t.Fatalf("rejection lacks the structured k field error: %+v", ack.Fields)
	}
	jobs, err := cl.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("rejected job was queued: %+v", jobs)
	}
	if _, err := cl.Status("j9999"); err == nil || !strings.Contains(err.Error(), "no such job") {
		t.Fatalf("unknown job status: %v", err)
	}
	td.shutdown(t)
}

// TestDaemonCancel cancels a running job (endless consensus search) and a
// queued one.
func TestDaemonCancel(t *testing.T) {
	td := startDaemon(t, jobd.Config{MaxActive: 1})
	var wg sync.WaitGroup
	worker(t, td.addr, 2, &wg)
	cl, err := jobd.Dial(td.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	endless, err := harness.CheckJob(harness.Options{Protocol: "consensus",
		Params: protocol.Params{N: 2}, MaxDepth: 30})
	if err != nil {
		t.Fatal(err)
	}
	quick, err := harness.CheckJob(harness.Options{Protocol: "firstvalue",
		Params: protocol.Params{N: 3}, MaxDepth: 10, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	ack1, err := cl.Submit(endless)
	if err != nil || ack1.Err != "" {
		t.Fatalf("submit: %v / %s", err, ack1.Err)
	}
	ack2, err := cl.Submit(quick)
	if err != nil || ack2.Err != "" {
		t.Fatalf("submit: %v / %s", err, ack2.Err)
	}
	waitState(t, cl, ack1.ID, "running")
	if info, err := cl.Status(ack2.ID); err != nil || info.State != "queued" {
		t.Fatalf("second job should be queued behind MaxActive=1: %+v %v", info, err)
	}
	// Cancel the queued one first, then the running one.
	if err := cl.Cancel(ack2.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, ack2.ID, "canceled")
	if err := cl.Cancel(ack1.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, ack1.ID, "canceled")
	if err := cl.Cancel(ack1.ID); err == nil {
		t.Fatal("cancel of an already-canceled job succeeded")
	}
	td.shutdown(t)
	wg.Wait()
}

// TestDaemonDrainAndRestartResume is the durability gate: a daemon with
// running and queued jobs shuts down gracefully — running jobs journaled as
// interrupted and resumable — and a fresh daemon on the same directory
// re-queues and completes them, byte-identical to the solo run.
func TestDaemonDrainAndRestartResume(t *testing.T) {
	dir := t.TempDir()
	opts := harness.Options{Protocol: "firstvalue", Params: protocol.Params{N: 4},
		MaxDepth: 12, MaxViolations: 3, Prune: true}
	solo := soloWireReport(t, opts)
	job, err := harness.CheckJob(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: no workers connect, so the running job cannot finish and the
	// second stays queued.
	td := startDaemon(t, jobd.Config{Dir: dir, MaxActive: 1})
	cl, err := jobd.Dial(td.addr)
	if err != nil {
		t.Fatal(err)
	}
	ack1, err := cl.Submit(job)
	if err != nil || ack1.Err != "" {
		t.Fatalf("submit: %v / %s", err, ack1.Err)
	}
	ack2, err := cl.Submit(job)
	if err != nil || ack2.Err != "" {
		t.Fatalf("submit: %v / %s", err, ack2.Err)
	}
	waitState(t, cl, ack1.ID, "running")
	cl.Close()
	td.shutdown(t)

	// The journal must record the drained job as interrupted + resumable and
	// the other as still queued.
	raw, err := os.ReadFile(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]jobd.Record{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec jobd.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		last[rec.ID] = rec
	}
	if rec := last[ack1.ID]; rec.State != jobd.StateInterrupted || !rec.Resumable {
		t.Fatalf("drained job journaled as %s (resumable=%v), want interrupted+resumable", rec.State, rec.Resumable)
	}
	if rec := last[ack2.ID]; rec.State != jobd.StateQueued {
		t.Fatalf("waiting job journaled as %s, want queued", rec.State)
	}

	// Phase 2: restart over the same directory with a real worker; recovery
	// re-queues both and they complete identically to the solo run.
	td2 := startDaemon(t, jobd.Config{Dir: dir, MaxActive: 2})
	var wg sync.WaitGroup
	worker(t, td2.addr, 2, &wg)
	cl2, err := jobd.Dial(td2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for _, id := range []string{ack1.ID, ack2.ID} {
		waitState(t, cl2, id, "done")
		rep, err := cl2.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reportJSON(t, rep.Report), reportJSON(t, solo); got != want {
			t.Fatalf("resumed job %s diverged from solo run:\nwant %s\ngot  %s", id, want, got)
		}
	}
	// Fresh submissions must not collide with recovered ids.
	ack3, err := cl2.Submit(job)
	if err != nil || ack3.Err != "" {
		t.Fatalf("post-restart submit: %v / %s", err, ack3.Err)
	}
	if ack3.ID == ack1.ID || ack3.ID == ack2.ID {
		t.Fatalf("id collision after restart: %s", ack3.ID)
	}
	waitState(t, cl2, ack3.ID, "done")
	td2.shutdown(t)
	wg.Wait()
}

// TestDaemonLateWorker submits a job to a daemon with no workers: the job is
// dispatched and waits on the empty fleet, then a worker that joins late must
// drain it to a report byte-identical to the solo run.
func TestDaemonLateWorker(t *testing.T) {
	opts := harness.Options{Protocol: "firstvalue", Params: protocol.Params{N: 4},
		MaxDepth: 12, Prune: true}
	solo := soloWireReport(t, opts)
	job, err := harness.CheckJob(opts)
	if err != nil {
		t.Fatal(err)
	}
	td := startDaemon(t, jobd.Config{MaxActive: 1})
	cl, err := jobd.Dial(td.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ack, err := cl.Submit(job)
	if err != nil || ack.Err != "" {
		t.Fatalf("submit: %v / %s", err, ack.Err)
	}
	waitState(t, cl, ack.ID, "running")
	var wg sync.WaitGroup
	worker(t, td.addr, 2, &wg)
	waitState(t, cl, ack.ID, "done")
	rep, err := cl.Fetch(ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportJSON(t, rep.Report), reportJSON(t, solo); got != want {
		t.Fatalf("late-worker job diverged from solo run:\nwant %s\ngot  %s", want, got)
	}
	td.shutdown(t)
	wg.Wait()
}

// TestQueueRecovery unit-tests the journal: upsert last-wins, restart
// recovery of running and resumable-interrupted records, id continuity.
func TestQueueRecovery(t *testing.T) {
	dir := t.TempDir()
	q, err := jobd.OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(state jobd.JobState, resumable bool) *jobd.Record {
		rec := &jobd.Record{ID: q.NextID(), Job: wire.Job{Protocol: "firstvalue"},
			State: state, Resumable: resumable}
		if err := q.Put(rec); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	running := mk(jobd.StateRunning, false)
	queued := mk(jobd.StateQueued, false)
	done := mk(jobd.StateDone, false)
	interrupted := mk(jobd.StateInterrupted, true)
	abandoned := mk(jobd.StateInterrupted, false) // not resumable: stays put
	// Upsert: flip the done job's state twice; the last line must win.
	done.Err = "transient"
	done.State = jobd.StateFailed
	if err := q.Put(done); err != nil {
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
	for _, c := range []struct {
		id   string
		want jobd.JobState
	}{
		{running.ID, jobd.StateQueued},
		{queued.ID, jobd.StateQueued},
		{done.ID, jobd.StateFailed},
		{interrupted.ID, jobd.StateQueued},
		{abandoned.ID, jobd.StateInterrupted},
	} {
		rec := q2.Get(c.id)
		if rec == nil || rec.State != c.want {
			t.Fatalf("after restart %s: got %+v, want state %s", c.id, rec, c.want)
		}
	}
	if id := q2.NextID(); id != "j0006" {
		t.Fatalf("id continuity broken after restart: got %s", id)
	}
	if n := len(q2.List()); n != 5 {
		t.Fatalf("want 5 records listed, got %d", n)
	}
}
