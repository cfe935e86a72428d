package jobd_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"revisionist/internal/dist"
	"revisionist/internal/harness"
	"revisionist/internal/jobd"
	"revisionist/internal/protocol"
	"revisionist/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// progressOpts is the job of the journaled-progress golden: unpruned, so its
// outcomes carry no fingerprints (those are seeded per process) and a later
// process can resume them; budgeted, so outcomes carry truncation bitsets;
// violating, so they carry violations.
var progressOpts = harness.Options{Protocol: "firstvalue-consensus", Params: protocol.Params{N: 3},
	MaxDepth: 7, MaxRuns: 100000, MaxViolations: 100}

// progressRecord builds the journal record of a job interrupted mid-run: the
// outcomes of every third subtree of its frontier are complete, each run
// exactly as a worker runs its lease (budget base 0 is a valid lower bound).
func progressRecord(t *testing.T) *jobd.Record {
	t.Helper()
	job, err := harness.CheckJob(progressOpts)
	if err != nil {
		t.Fatal(err)
	}
	nprocs, factory, err := harness.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	frontier, _, err := trace.SubtreePlan(nprocs, factory, job.Opts)
	if err != nil {
		t.Fatal(err)
	}
	p := &dist.Progress{Frontier: len(frontier), Outcomes: make([]*trace.SubtreeOutcome, len(frontier))}
	for i := 0; i < len(frontier); i += 3 {
		if p.Outcomes[i], err = trace.RunSubtree(nprocs, factory, job.Opts, frontier[i], 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	job.ID = "j0001"
	return &jobd.Record{ID: "j0001", Job: job, State: jobd.StateInterrupted, Session: "s001",
		Resumable: true, Progress: p}
}

// TestProgressRecordGolden pins the journal line of a record carrying a
// progress snapshot: a journal written by one build must load in the next.
func TestProgressRecordGolden(t *testing.T) {
	line, err := json.Marshal(progressRecord(t))
	if err != nil {
		t.Fatal(err)
	}
	line = append(line, '\n')
	path := filepath.Join("testdata", "progress_record.golden")
	if *update {
		if err := os.WriteFile(path, line, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, want) {
		t.Errorf("journal line differs from %s (re-run with -update to accept):\n--- got ---\n%s--- want ---\n%s", path, line, want)
	}
}

// TestJournaledProgressResumes restarts a daemon on a journal holding the
// golden progress line: recovery re-queues the interrupted job, the fleet
// resumes from the journaled outcomes (the log line proves some were
// restored), and the finished report is byte-identical to the solo run.
func TestJournaledProgressResumes(t *testing.T) {
	line, err := os.ReadFile(filepath.Join("testdata", "progress_record.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), line, 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	td := startDaemon(t, jobd.Config{Dir: dir, MaxActive: 1,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}})
	var wg sync.WaitGroup
	worker(t, td.addr, 2, &wg)
	cl, err := jobd.Dial(td.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitState(t, cl, "j0001", "done")
	rep, err := cl.Fetch("j0001")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportJSON(t, rep.Report), reportJSON(t, soloWireReport(t, progressOpts)); got != want {
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
		t.Fatalf("daemon never logged a non-empty resume; logs: %q", logs)
	}
	td.shutdown(t)
	wg.Wait()
}
