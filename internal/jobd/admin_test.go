// Admin-surface tests: the HTTP handler scraped in-process with
// httptest recorders — no listener, so nothing to leak — against a real
// daemon that ran a real job through an instrumented worker. Covers the
// probe semantics (ready flips to 503 on drain), the metrics exposition
// carrying every layer's series with the job's work visible in them, the
// JSON job listing with admission headroom, and the per-job flight
// recording. Runs under -race in CI like the rest of the package.
package jobd_test

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"revisionist/internal/dist"
	"revisionist/internal/dist/wire"
	"revisionist/internal/harness"
	"revisionist/internal/jobd"
	"revisionist/internal/obs"
	"revisionist/internal/protocol"
	"revisionist/internal/trace"
)

// scrape performs one in-process request against the admin handler.
func scrape(t *testing.T, h http.Handler, path string) (int, string, http.Header) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String(), rec.Header()
}

func TestAdminEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	td := startDaemon(t, jobd.Config{Dir: t.TempDir(), MaxActive: 1, Registry: reg})
	h := td.d.AdminHandler(nil)

	// Probes answer before any worker or job exists.
	if code, body, _ := scrape(t, h, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body, _ := scrape(t, h, "/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz = %d %q", code, body)
	}
	// A non-nil gate that says no wins over daemon readiness.
	if code, _, _ := scrape(t, td.d.AdminHandler(func() bool { return false }), "/readyz"); code != 503 {
		t.Fatalf("/readyz with false gate = %d, want 503", code)
	}

	// One instrumented in-process worker: its search counters land on the
	// daemon's registry through dist.WorkConfig.Obs.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", td.addr)
		if err != nil {
			return
		}
		dist.WorkCfg(t.Context(), conn, dist.WorkConfig{Slots: 2, Obs: trace.NewSearchObs(reg)}, harness.Resolve)
	}()
	defer wg.Wait()

	cl, err := jobd.Dial(td.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	job, err := harness.CheckJob(harness.Options{Protocol: "kset",
		Params: protocol.Params{N: 3, K: 2}, MaxDepth: 10, Prune: true, Symmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := cl.Submit(job)
	if err != nil || ack.Err != "" {
		t.Fatalf("submit: %v %q", err, ack.Err)
	}
	waitState(t, cl, ack.ID, string(jobd.StateDone))

	// The exposition carries series from every layer, with the finished
	// job's work visible in them, under the Prometheus text content type.
	code, metrics, hdr := scrape(t, h, "/metrics")
	if code != 200 || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("/metrics = %d, Content-Type %q", code, hdr.Get("Content-Type"))
	}
	for _, series := range []string{
		"search_runs_total",
		"dist_leases_issued_total",
		"dist_worker_joins_total 1",
		"jobd_queue_depth 0",
		`jobd_jobs{state="done"} 1`,
		"jobd_journal_bytes_total",
		"jobd_fsync_seconds_count",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics is missing %q:\n%s", series, metrics)
		}
	}
	if strings.Contains(metrics, "search_runs_total 0\n") {
		t.Error("search_runs_total never moved: the worker's SearchObs is not wired to the registry")
	}

	// The job listing is JSON with admission headroom plus the job.
	_, jobsBody, jobsHdr := scrape(t, h, "/jobs")
	if ct := jobsHdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/jobs Content-Type = %q", ct)
	}
	var listing struct {
		Queue wire.QueueInfo
		Jobs  []wire.JobInfo
	}
	if err := json.Unmarshal([]byte(jobsBody), &listing); err != nil {
		t.Fatalf("/jobs: %v in %s", err, jobsBody)
	}
	if listing.Queue.MaxQueued <= 0 {
		t.Fatalf("/jobs queue headroom missing: %+v", listing.Queue)
	}
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != ack.ID || listing.Jobs[0].State != string(jobd.StateDone) {
		t.Fatalf("/jobs listing = %+v", listing.Jobs)
	}

	// The flight recording spans the whole lifecycle, newest state last.
	_, traceBody, _ := scrape(t, h, "/jobs/"+ack.ID+"/trace")
	var ev wire.Events
	if err := json.Unmarshal([]byte(traceBody), &ev); err != nil {
		t.Fatalf("/jobs/%s/trace: %v in %s", ack.ID, err, traceBody)
	}
	kinds := map[string]bool{}
	for _, e := range ev.Events {
		kinds[e.Kind] = true
	}
	for _, kind := range []string{"queued", "start", "lease", "finish", "done"} {
		if !kinds[kind] {
			t.Fatalf("/jobs/%s/trace is missing a %q event: %s", ack.ID, kind, traceBody)
		}
	}
	if last := ev.Events[len(ev.Events)-1]; last.Kind != "done" {
		t.Fatalf("flight recording ends with %q, want done", last.Kind)
	}

	// Unknown jobs and malformed paths 404 instead of panicking.
	if code, _, _ := scrape(t, h, "/jobs/nope/trace"); code != 404 {
		t.Fatalf("/jobs/nope/trace = %d, want 404", code)
	}
	if code, _, _ := scrape(t, h, "/jobs/"+ack.ID+"/other"); code != 404 {
		t.Fatalf("/jobs/ID/other = %d, want 404", code)
	}

	// pprof is mounted on the private mux.
	if code, body, _ := scrape(t, h, "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}

	// Draining flips readiness: the handler stays up, the probe says stop.
	td.shutdown(t)
	if code, body, _ := scrape(t, h, "/readyz"); code != 503 || !strings.Contains(body, "not ready") {
		t.Fatalf("/readyz after drain = %d %q, want 503 not ready", code, body)
	}
	if code, _, _ := scrape(t, h, "/healthz"); code != 200 {
		t.Fatalf("/healthz after drain = %d, want 200 (liveness is not readiness)", code)
	}
}
