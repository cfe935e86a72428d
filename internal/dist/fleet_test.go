// Fleet multiplexing tests: several concurrent jobs sharing one worker
// population must each produce the byte-identical report of their solo
// single-process run — through pipes and TCP, with workers dying and joining
// mid-overlap — and version-2 peers must be rejected explicitly.
package dist_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"revisionist/internal/dist"
	"revisionist/internal/dist/wire"
	"revisionist/internal/harness"
	"revisionist/internal/trace"
)

// fleetJobs is the concurrent-job workload: two different protocols with
// different wave shapes, both pruned, one symmetry-reduced — distinct enough
// that any cross-job leakage (shared mirror, wrong budget base, misrouted
// result) shows up as a diverged report.
func fleetJobs(t *testing.T) map[string]wire.Job {
	t.Helper()
	jobs := map[string]wire.Job{}
	fv, err := harness.CheckJob(harness.Options{
		Protocol: "firstvalue", Params: smallParams("firstvalue"),
		MaxDepth: 12, MaxViolations: 3, Prune: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs["fv"] = fv
	ks, err := harness.CheckJob(harness.Options{
		Protocol: "kset", Params: smallParams("kset"),
		MaxDepth: 12, MaxViolations: 3, Prune: true, Symmetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs["ks"] = ks
	return jobs
}

// soloReports explores each job single-process for the byte-identity oracle.
func soloReports(t *testing.T, jobs map[string]wire.Job) map[string]*trace.ExploreReport {
	t.Helper()
	solo := map[string]*trace.ExploreReport{}
	for id, job := range jobs {
		nprocs, factory, err := harness.Resolve(job)
		if err != nil {
			t.Fatal(err)
		}
		opts := job.Opts
		opts.Workers = 1
		rep, err := trace.Explore(nprocs, factory, opts)
		if err != nil {
			t.Fatal(err)
		}
		solo[id] = rep
	}
	return solo
}

// startFleet runs a fleet over ln and returns a stopper that tears it down.
func startFleet(ln net.Listener, resolve dist.Resolver) (*dist.Fleet, func()) {
	f := dist.NewFleet(resolve)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	go f.ServeWorkers(ln)
	return f, func() {
		cancel()
		<-done
		ln.Close()
	}
}

// TestFleetConcurrentJobsPipe shares one pipe fleet between two concurrent
// jobs and requires each merged report byte-identical to its solo run.
func TestFleetConcurrentJobsPipe(t *testing.T) {
	jobs := fleetJobs(t)
	solo := soloReports(t, jobs)
	ln := dist.ListenPipe()
	f, stop := startFleet(ln, harness.Resolve)
	defer stop()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := ln.Dial()
			if err != nil {
				return
			}
			dist.Work(context.Background(), conn, 2, harness.Resolve)
		}()
	}
	chans := map[string]<-chan dist.SessionResult{}
	for id, job := range jobs {
		ch, err := f.Start(id, job)
		if err != nil {
			t.Fatal(err)
		}
		chans[id] = ch
	}
	for id, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("job %s: %v", id, r.Err)
		}
		reportsEqual(t, "fleet/"+id, solo[id], r.Report)
	}
	stop()
	wg.Wait()
}

// TestFleetConcurrentJobsTCPWorkerKill is the acceptance gate: two jobs over
// one TCP-loopback fleet, one worker killed mid-overlap and a replacement
// joining late — both reports still byte-identical to their solo runs.
func TestFleetConcurrentJobsTCPWorkerKill(t *testing.T) {
	jobs := fleetJobs(t)
	solo := soloReports(t, jobs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	f, stop := startFleet(ln, harness.Resolve)
	defer stop()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the victim: dies after hello + one result
		defer wg.Done()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		dist.Work(context.Background(), &killConn{Conn: conn, after: 2}, 1, harness.Resolve)
	}()
	wg.Add(1)
	go func() { // the survivor
		defer wg.Done()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		dist.Work(context.Background(), conn, 2, harness.Resolve)
	}()
	wg.Add(1)
	go func() { // the late replacement
		defer wg.Done()
		time.Sleep(20 * time.Millisecond)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		dist.Work(context.Background(), conn, 1, harness.Resolve)
	}()
	chans := map[string]<-chan dist.SessionResult{}
	for id, job := range jobs {
		ch, err := f.Start(id, job)
		if err != nil {
			t.Fatal(err)
		}
		chans[id] = ch
	}
	for id, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("job %s: %v", id, r.Err)
		}
		reportsEqual(t, "fleet-kill/"+id, solo[id], r.Report)
	}
	stop()
	wg.Wait()
}

// TestFleetSequentialReuse pins per-job worker state cleanup: the same job
// re-run on the same fleet (fresh id) must reproduce the same report — a
// leaked mirror table or cursor from the first run would corrupt the second.
func TestFleetSequentialReuse(t *testing.T) {
	jobs := fleetJobs(t)
	solo := soloReports(t, jobs)
	ln := dist.ListenPipe()
	f, stop := startFleet(ln, harness.Resolve)
	defer stop()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Dial()
		if err != nil {
			return
		}
		dist.Work(context.Background(), conn, 2, harness.Resolve)
	}()
	for round := 0; round < 2; round++ {
		for id, job := range jobs {
			runID := fmt.Sprintf("%s-r%d", id, round)
			ch, err := f.Start(runID, job)
			if err != nil {
				t.Fatal(err)
			}
			r := <-ch
			if r.Err != nil {
				t.Fatalf("%s: %v", runID, r.Err)
			}
			reportsEqual(t, runID, solo[id], r.Report)
		}
	}
	stop()
	wg.Wait()
}

// TestFleetCancel cancels one of two concurrent jobs: the cancelled one
// reports ErrCanceled, the other still completes byte-identically.
func TestFleetCancel(t *testing.T) {
	jobs := fleetJobs(t)
	solo := soloReports(t, jobs)
	// The victim must outlive the cancel: consensus has infinite
	// obstruction-free executions, so its unpruned tree at depth 30 is
	// effectively unbounded (~2^30 runs).
	victim, err := harness.CheckJob(harness.Options{
		Protocol: "consensus", Params: smallParams("consensus"), MaxDepth: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := dist.ListenPipe()
	f, stop := startFleet(ln, harness.Resolve)
	defer stop()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Dial()
		if err != nil {
			return
		}
		dist.Work(context.Background(), conn, 2, harness.Resolve)
	}()
	vch, err := f.Start("victim", victim)
	if err != nil {
		t.Fatal(err)
	}
	kch, err := f.Start("keeper", jobs["ks"])
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := f.Cancel("victim"); err != nil {
		t.Fatal(err)
	}
	if r := <-vch; !errors.Is(r.Err, dist.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", r.Err)
	}
	if err := f.Cancel("victim"); err == nil {
		t.Fatal("second cancel of a finished job succeeded")
	}
	r := <-kch
	if r.Err != nil {
		t.Fatalf("keeper: %v", r.Err)
	}
	reportsEqual(t, "keeper", solo["ks"], r.Report)
	stop()
	wg.Wait()
}

// TestFleetRejectsVersionSkew pins the explicit v2 compatibility error: a
// peer announcing wire version 2 gets a reject frame naming both versions,
// not a silent close, and Work surfaces it in its returned error.
func TestFleetRejectsVersionSkew(t *testing.T) {
	ln := dist.ListenPipe()
	f, stop := startFleet(ln, harness.Resolve)
	defer stop()
	_ = f
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(conn)
	if err := c.Send(&wire.Msg{Kind: wire.KindHello, Hello: &wire.Hello{Version: 2, Slots: 1}}); err != nil {
		t.Fatal(err)
	}
	msg, err := c.Recv()
	if err != nil {
		t.Fatalf("want an explicit reject frame, got close: %v", err)
	}
	if msg.Kind != wire.KindReject || msg.Reject == nil {
		t.Fatalf("want reject, got %q", msg.Kind)
	}
	if msg.Reject.Got != 2 || msg.Reject.Want != wire.Version || msg.Reject.Err == "" {
		t.Fatalf("reject lacks versions or message: %+v", msg.Reject)
	}
	conn.Close()
}
