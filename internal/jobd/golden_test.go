package jobd_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// process can resume them; budgeted and violating, so its subtrees stop on
// both bases and its outcomes carry violations.
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
		if p.Outcomes[i], err = trace.RunSubtree(nprocs, factory, job.Opts, frontier[i], 0, 0, nil); err != nil {
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
// restored), and the finished report is byte-identical to the solo run. The
// same holds for the line as wire version 6 journaled it, whose outcomes
// carry per-run records that this build ignores.
func TestJournaledProgressResumes(t *testing.T) {
	for _, golden := range []string{"progress_record.golden", "progress_record_v6.golden"} {
		t.Run(golden, func(t *testing.T) { resumeJournaled(t, golden) })
	}
}

func resumeJournaled(t *testing.T, golden string) {
	line, err := os.ReadFile(filepath.Join("testdata", golden))
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

// TestPrunedProgressV7Loads loads a journal line written by wire version 7
// (testdata/progress_record_pruned_v7.golden, a decode fixture that -update
// does not rewrite): a pruned job whose outcomes carry their closures as
// JSON arrays. The open-time compaction rewrites the line with packed
// closures, and that journal loads to the same closures again.
func TestPrunedProgressV7Loads(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "progress_record_pruned_v7.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(legacy, []byte(`"Closures":[{`)) {
		t.Fatal("fixture carries no closures in the array form")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	load := func() ([]trace.Closures, []byte) {
		t.Helper()
		q, err := jobd.OpenQueue(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		rec := q.Get("j0001")
		if rec == nil || rec.Progress == nil {
			t.Fatalf("record or its progress did not load: %+v", rec)
		}
		var closures []trace.Closures
		for _, o := range rec.Progress.Outcomes {
			if o != nil {
				closures = append(closures, o.Closures)
			}
		}
		journal, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return closures, journal
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	old, compacted := load()
	if bytes.Contains(compacted, []byte(`"Closures":[`)) || !bytes.Contains(compacted, []byte(`"Closures":"`)) {
		t.Fatalf("compaction kept the array form:\n%s", compacted)
	}
	cur, _ := load()
	total := 0
	for i := range old {
		if !slices.Equal(old[i], cur[i]) {
			t.Fatalf("outcome %d: array form loaded %v, packed form %v", i, old[i], cur[i])
		}
		total += len(old[i])
	}
	if total == 0 || len(cur) != len(old) {
		t.Fatalf("loaded %d outcomes with %d closures, then %d outcomes", len(old), total, len(cur))
	}
}
