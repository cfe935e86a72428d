package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"revisionist/internal/dist"
	"revisionist/internal/harness"
	"revisionist/internal/jobd"
	"revisionist/internal/obs"
	"revisionist/internal/trace"
)

// obsSmoke is the `make obs-smoke` payload: the loopback scenario (daemon
// + two TCP workers) with the full observability surface switched on — a
// live registry, a journal on disk, instrumented in-process workers, and
// the admin HTTP listener. It runs one real job end to end and then proves
// the flight recorder's two contracts at once: every endpoint answers
// (health, readiness, metrics, jobs, per-job trace, pprof index) with every
// required metric series present, and the fully instrumented report is
// still byte-identical to a plain single-process run.
func obsSmoke(out io.Writer, addr string) error {
	dir, err := os.MkdirTemp("", "checkd-obs-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Two in-process workers with the search core instrumented onto the
	// daemon's registry through dist.WorkConfig.Obs.
	reg := obs.NewRegistry()
	w := dialWorker(dist.WorkConfig{Slots: 2, Obs: trace.NewSearchObs(reg)}, nil)
	l, err := startLoopback(jobd.Config{Dir: dir, MaxActive: 2, Registry: reg}, w, w)
	if err != nil {
		return err
	}
	defer l.stop()

	adminAddr, stop, err := serveAdmin(l.d, addr)
	if err != nil {
		return err
	}
	defer stop()
	base := "http://" + adminAddr.String()
	fmt.Fprintf(out, "smoke: daemon + 2 instrumented TCP workers, admin on %s\n", base)

	if body, err := get(base + "/healthz"); err != nil || !strings.Contains(body, "ok") {
		return fmt.Errorf("/healthz: %q, %v", body, err)
	}
	if body, err := get(base + "/readyz"); err != nil || !strings.Contains(body, "ready") {
		return fmt.Errorf("/readyz: %q, %v", body, err)
	}
	if body, err := get(base + "/debug/pprof/"); err != nil || !strings.Contains(body, "goroutine") {
		return fmt.Errorf("/debug/pprof/: %v", err)
	}

	// The determinism contract: the fully instrumented service run renders
	// byte-identically to a plain single-process check.
	ids, err := l.check(out, []harness.Options{ksetCase})
	if err != nil {
		return err
	}
	id := ids[0]
	fmt.Fprintln(out, "smoke: instrumented report byte-identical to single-process run")

	// The exposition must carry every layer's series, with the job's work
	// visible in them.
	metrics, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	required := []string{
		"search_runs_total",
		"search_states_distinct_total",
		"dist_leases_issued_total",
		"dist_worker_joins_total",
		`dist_wire_frames_total{kind="result",dir="in"}`,
		"jobd_queue_depth",
		`jobd_jobs{state="done"} 1`,
		"jobd_journal_bytes_total",
		"jobd_fsync_seconds_count",
		"jobd_sync_batch_puts_sum",
	}
	for _, series := range required {
		if !strings.Contains(metrics, series) {
			return fmt.Errorf("/metrics is missing %q", series)
		}
	}
	fmt.Fprintf(out, "smoke: /metrics carries all %d required series\n", len(required))

	jobs, err := get(base + "/jobs")
	if err != nil {
		return err
	}
	if !strings.Contains(jobs, id) || !strings.Contains(jobs, "MaxQueued") {
		return fmt.Errorf("/jobs listing is missing the job or the queue headroom: %s", jobs)
	}

	traceBody, err := get(base + "/jobs/" + id + "/trace")
	if err != nil {
		return err
	}
	var events struct {
		Job    string
		Events []struct{ Kind string }
	}
	if err := json.Unmarshal([]byte(traceBody), &events); err != nil {
		return fmt.Errorf("/jobs/%s/trace: %v", id, err)
	}
	kinds := map[string]bool{}
	for _, e := range events.Events {
		kinds[e.Kind] = true
	}
	for _, kind := range []string{"queued", "start", "lease", "finish", "done"} {
		if !kinds[kind] {
			return fmt.Errorf("/jobs/%s/trace is missing a %q event (got %v)", id, kind, kinds)
		}
	}
	fmt.Fprintf(out, "smoke: flight recording of %s spans queued -> leases -> done (%d events)\n",
		id, len(events.Events))
	return nil
}

// get fetches one admin URL, failing on any non-200 answer.
func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return string(body), fmt.Errorf("%s: %s", url, resp.Status)
	}
	return string(body), nil
}
