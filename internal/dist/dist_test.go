// Distributed determinism tests: the merged report of a coordinator with
// any worker population — in-process pipes or TCP loopback, healthy or dying
// mid-run — must be byte-identical to the single-process trace.Explore
// report. These run under -race in CI (make race covers this package): the
// wave-barrier closure publication and the worker mirror tables are exactly
// the kind of cross-goroutine state the detector should see.
package dist_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revisionist/internal/dist"
	"revisionist/internal/dist/wire"
	"revisionist/internal/harness"
	"revisionist/internal/protocol"
	"revisionist/internal/sched"
	"revisionist/internal/trace"
)

// smallParams returns per-protocol parameters small enough that a pruned
// exhaustive exploration at modest depth finishes quickly (mirrors the
// harness determinism tests).
func smallParams(name string) protocol.Params {
	switch name {
	case "consensus", "paxos", "firstvalue-consensus", "aan":
		return protocol.Params{N: 2}
	case "firstvalue", "singleton":
		return protocol.Params{N: 3}
	case "kset":
		return protocol.Params{N: 3, K: 2}
	case "lane-kset":
		return protocol.Params{N: 3, K: 2, X: 1}
	default:
		return protocol.Params{}
	}
}

// reportsEqual fails unless the two reports match field for field, violation
// for violation (schedules and rendered errors).
func reportsEqual(t *testing.T, tag string, want, got *trace.ExploreReport) {
	t.Helper()
	if want.Runs != got.Runs || want.Truncated != got.Truncated || want.Exhausted != got.Exhausted ||
		want.Pruned != got.Pruned || want.Distinct != got.Distinct ||
		len(want.Violations) != len(got.Violations) {
		t.Fatalf("%s: reports diverge:\nwant %+v\ngot  %+v", tag, want, got)
	}
	for i := range want.Violations {
		if fmt.Sprint(want.Violations[i].Schedule) != fmt.Sprint(got.Violations[i].Schedule) ||
			want.Violations[i].Err.Error() != got.Violations[i].Err.Error() {
			t.Fatalf("%s: violation %d diverges: %v vs %v", tag, i, want.Violations[i], got.Violations[i])
		}
	}
}

// runPipe explores job through a pipe coordinator with workers in-process
// workers of one slot each.
func runPipe(t *testing.T, job wire.Job, workers int) (*trace.ExploreReport, error) {
	t.Helper()
	ln := dist.ListenPipe()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := ln.Dial()
			if err != nil {
				return
			}
			dist.Work(context.Background(), conn, 1, harness.Resolve)
		}()
	}
	rep, err := dist.Serve(context.Background(), ln, job, harness.Resolve)
	wg.Wait()
	return rep, err
}

// checkJob builds the wire job of a Check over the named protocol.
func checkJob(t *testing.T, name string, params protocol.Params, prune bool) wire.Job {
	t.Helper()
	return checkJobMode(t, name, params, prune, false)
}

func checkJobMode(t *testing.T, name string, params protocol.Params, prune, symmetry bool) wire.Job {
	t.Helper()
	job, err := harness.CheckJob(harness.Options{
		Protocol: name, Params: params,
		MaxDepth: 10, MaxRuns: 4000, MaxViolations: 3,
		Prune: prune, Symmetry: symmetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestDistPipeDeterministicAllProtocols runs every registered protocol —
// plain, pruned, and symmetry-reduced — through an in-process pipe
// coordinator with 1 and then 3 workers, and requires the report
// byte-identical to the sequential trace.Explore — Violations, Pruned,
// Distinct and Exhausted included.
func TestDistPipeDeterministicAllProtocols(t *testing.T) {
	modes := []struct {
		tag             string
		prune, symmetry bool
	}{
		{"plain", false, false},
		{"prune", true, false},
		{"symmetry", true, true},
	}
	for _, pr := range protocol.Protocols() {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", pr.Name, mode.tag), func(t *testing.T) {
				job := checkJobMode(t, pr.Name, smallParams(pr.Name), mode.prune, mode.symmetry)
				nprocs, factory, err := harness.Resolve(job)
				if err != nil {
					t.Fatal(err)
				}
				opts := job.Opts
				opts.Workers = 1
				single, err := trace.Explore(nprocs, factory, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 3} {
					rep, err := runPipe(t, job, workers)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					reportsEqual(t, fmt.Sprintf("workers=%d", workers), single, rep)
				}
			})
		}
	}
}

// TestDistTCPLoopback is the acceptance pair over real sockets: firstvalue
// n=4 and kset n=4 k=3 at exhaustive bounds — pruned and symmetry-reduced —
// one coordinator, two TCP-loopback workers, byte-identical reports.
func TestDistTCPLoopback(t *testing.T) {
	for _, c := range []struct {
		name     string
		params   protocol.Params
		symmetry bool
	}{
		{"firstvalue", protocol.Params{N: 4}, false},
		{"firstvalue", protocol.Params{N: 4}, true},
		{"kset", protocol.Params{N: 4, K: 3}, false},
		{"kset", protocol.Params{N: 4, K: 3}, true},
	} {
		t.Run(fmt.Sprintf("%s/symmetry=%v", c.name, c.symmetry), func(t *testing.T) {
			job, err := harness.CheckJob(harness.Options{
				Protocol: c.name, Params: c.params, MaxDepth: 14, Prune: true, Symmetry: c.symmetry,
			})
			if err != nil {
				t.Fatal(err)
			}
			nprocs, factory, err := harness.Resolve(job)
			if err != nil {
				t.Fatal(err)
			}
			single, err := trace.Explore(nprocs, factory, job.Opts)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						return
					}
					dist.Work(context.Background(), conn, 2, harness.Resolve)
				}()
			}
			rep, err := dist.Serve(context.Background(), ln, job, harness.Resolve)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, c.name, single, rep)
		})
	}
}

// killConn closes the underlying connection after a fixed number of writes —
// for a worker, hello plus (after-1) results — simulating a worker dying
// mid-run without any goodbye.
type killConn struct {
	net.Conn
	writes atomic.Int64
	after  int64
}

func (k *killConn) Write(p []byte) (int, error) {
	// Each wire frame is two writes (header + body): count bodies only by
	// counting every second write.
	if k.writes.Add(1) > 2*k.after {
		k.Conn.Close()
		return 0, errors.New("killed")
	}
	return k.Conn.Write(p)
}

// TestDistWorkerKillRelease kills one of two workers mid-run — once right
// after its first result, once before it returns anything — and requires the
// coordinator to re-lease its subtrees and still produce the byte-identical
// report.
func TestDistWorkerKillRelease(t *testing.T) {
	job := checkJob(t, "firstvalue", protocol.Params{N: 4}, true)
	nprocs, factory, err := harness.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	single, err := trace.Explore(nprocs, factory, job.Opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, afterWrites := range []int64{1, 2} { // 1 = hello only, 2 = hello + first result
		t.Run(fmt.Sprintf("after=%d", afterWrites), func(t *testing.T) {
			ln := dist.ListenPipe()
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // the victim
				defer wg.Done()
				conn, err := ln.Dial()
				if err != nil {
					return
				}
				dist.Work(context.Background(), &killConn{Conn: conn, after: afterWrites}, 1, harness.Resolve)
			}()
			go func() { // the survivor
				defer wg.Done()
				conn, err := ln.Dial()
				if err != nil {
					return
				}
				dist.Work(context.Background(), conn, 1, harness.Resolve)
			}()
			rep, err := dist.Serve(context.Background(), ln, job, harness.Resolve)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, "killed-worker", single, rep)
		})
	}
}

// TestDistWorkerCtxCancel cancels one worker's context mid-run: Work must
// return promptly (abandoning any in-flight subtree instead of exploring it
// to the end), its stopped outcomes must never be merged, and the surviving
// worker must still deliver the byte-identical report.
func TestDistWorkerCtxCancel(t *testing.T) {
	job := checkJob(t, "firstvalue", protocol.Params{N: 4}, true)
	nprocs, factory, err := harness.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	single, err := trace.Explore(nprocs, factory, job.Opts)
	if err != nil {
		t.Fatal(err)
	}
	ln := dist.ListenPipe()
	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	returned := make(chan struct{})
	go func() { // the cancelled worker
		defer wg.Done()
		conn, err := ln.Dial()
		if err != nil {
			return
		}
		dist.Work(wctx, conn, 1, harness.Resolve)
		close(returned)
	}()
	go func() { // the survivor
		defer wg.Done()
		conn, err := ln.Dial()
		if err != nil {
			return
		}
		dist.Work(context.Background(), conn, 1, harness.Resolve)
	}()
	go func() {
		time.Sleep(10 * time.Millisecond)
		wcancel()
	}()
	rep, err := dist.Serve(context.Background(), ln, job, harness.Resolve)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-returned:
	default:
		t.Fatal("cancelled worker never returned")
	}
	reportsEqual(t, "cancelled-worker", single, rep)
}

// TestDistLateWorker starts the coordinator with no workers at all; a worker
// that shows up late must still drain the whole search.
func TestDistLateWorker(t *testing.T) {
	job := checkJob(t, "consensus", protocol.Params{N: 2}, false)
	nprocs, factory, err := harness.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	single, err := trace.Explore(nprocs, factory, job.Opts)
	if err != nil {
		t.Fatal(err)
	}
	ln := dist.ListenPipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(50 * time.Millisecond)
		conn, err := ln.Dial()
		if err != nil {
			return
		}
		dist.Work(context.Background(), conn, 1, harness.Resolve)
	}()
	rep, err := dist.Serve(context.Background(), ln, job, harness.Resolve)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "late-worker", single, rep)
}

// TestDistInterrupted cancels the coordinator's context mid-run and requires
// the partial merged report back with trace.ErrInterrupted rather than a
// hang or a hard failure.
func TestDistInterrupted(t *testing.T) {
	job := checkJob(t, "firstvalue", protocol.Params{N: 4}, false)
	job.Opts.MaxRuns = 0
	job.Opts.MaxDepth = 20
	ctx, cancel := context.WithCancel(context.Background())
	ln := dist.ListenPipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Dial()
		if err != nil {
			return
		}
		dist.Work(context.Background(), conn, 1, harness.Resolve)
	}()
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	rep, err := dist.Serve(ctx, ln, job, harness.Resolve)
	wg.Wait()
	if err != nil && !errors.Is(err, trace.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted or completion, got %v", err)
	}
	if rep == nil {
		t.Fatal("no partial report")
	}
}

// TestDistUnknownProtocolFails pins the fail path: a worker that cannot
// resolve the job aborts the run loudly instead of hanging it.
func TestDistUnknownProtocolFails(t *testing.T) {
	job := wire.Job{Protocol: "firstvalue", Params: protocol.Params{N: 3},
		Opts: trace.ExploreOpts{MaxDepth: 8}}
	badResolve := func(wire.Job) (int, trace.Factory, error) {
		return 0, nil, errors.New("no such protocol here")
	}
	ln := dist.ListenPipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Dial()
		if err != nil {
			return
		}
		dist.Work(context.Background(), conn, 1, badResolve)
	}()
	_, err := dist.Serve(context.Background(), ln, job, harness.Resolve)
	wg.Wait()
	if err == nil || errors.Is(err, trace.ErrInterrupted) {
		t.Fatalf("want a job-rejection error, got %v", err)
	}
}

// TestDistBadWorkerAmongGood pins fail tolerance: one stale worker that
// cannot resolve the job is dropped, and a healthy worker still completes
// the byte-identical search.
func TestDistBadWorkerAmongGood(t *testing.T) {
	job := checkJob(t, "firstvalue", protocol.Params{N: 3}, true)
	nprocs, factory, err := harness.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	single, err := trace.Explore(nprocs, factory, job.Opts)
	if err != nil {
		t.Fatal(err)
	}
	badResolve := func(wire.Job) (int, trace.Factory, error) {
		return 0, nil, errors.New("stale binary: unknown protocol")
	}
	ln := dist.ListenPipe()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // healthy worker, joins first
		defer wg.Done()
		conn, err := ln.Dial()
		if err != nil {
			return
		}
		dist.Work(context.Background(), conn, 1, harness.Resolve)
	}()
	go func() { // stale worker, joins a moment later
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		conn, err := ln.Dial()
		if err != nil {
			return
		}
		dist.Work(context.Background(), conn, 1, badResolve)
	}()
	rep, err := dist.Serve(context.Background(), ln, job, harness.Resolve)
	wg.Wait()
	if err != nil {
		t.Fatalf("a single stale worker sank the run: %v", err)
	}
	reportsEqual(t, "bad-among-good", single, rep)
}

// TestDistWorkerSlotKeepsExplorer: a one-slot worker runs every lease of a
// pruned job on one explorer, so it builds its systems — a live system, a
// pristine root and the checkpoint slots — once, not once per lease, and
// the report stays byte-identical to Explore.
func TestDistWorkerSlotKeepsExplorer(t *testing.T) {
	job := checkJob(t, "consensus", protocol.Params{N: 3}, true)
	nprocs, factory, err := harness.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	single, err := trace.Explore(nprocs, factory, job.Opts)
	if err != nil {
		t.Fatal(err)
	}
	frontier, _, err := trace.SubtreePlan(nprocs, factory, job.Opts)
	if err != nil {
		t.Fatal(err)
	}
	var built atomic.Int64
	counting := func(j wire.Job) (int, trace.Factory, error) {
		n, f, err := harness.Resolve(j)
		if err != nil {
			return 0, nil, err
		}
		return n, func(gate sched.Stepper) trace.System {
			built.Add(1)
			return f(gate)
		}, nil
	}
	ln := dist.ListenPipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Dial()
		if err != nil {
			return
		}
		dist.Work(context.Background(), conn, 1, counting)
	}()
	rep, err := dist.Serve(context.Background(), ln, job, harness.Resolve)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "one-slot", single, rep)
	if bound := int64(2 + job.Opts.MaxDepth); len(frontier) < 8 || built.Load() > bound {
		t.Fatalf("worker built %d systems for %d subtrees, want at most %d", built.Load(), len(frontier), bound)
	}
}
