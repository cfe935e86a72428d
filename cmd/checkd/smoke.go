package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"revisionist/internal/dist"
	"revisionist/internal/dist/chaos"
	"revisionist/internal/dist/wire"
	"revisionist/internal/harness"
	"revisionist/internal/jobd"
	"revisionist/internal/protocol"
)

// ksetCase is a symmetry-reduced clean check: the job the observability and
// kill smokes run alone.
var ksetCase = harness.Options{Protocol: "kset", Params: protocol.Params{N: 4, K: 3},
	MaxDepth: 12, MaxViolations: 3, Prune: true, Symmetry: true}

// smokeCases are the jobs the loopback smokes run concurrently: two clean
// checks and one that stops at its violation cutoff, whose witness must
// list every violation.
var smokeCases = []harness.Options{
	{Protocol: "firstvalue", Params: protocol.Params{N: 4}, MaxDepth: 12, MaxViolations: 3, Prune: true},
	ksetCase,
	{Protocol: "firstvalue-consensus", Params: protocol.Params{N: 3}, MaxDepth: 9, MaxViolations: 3, Prune: true},
}

// smokeCheck is the `make jobd-smoke` payload: a daemon on a loopback
// listener with two TCP workers runs three protocol jobs concurrently on
// the one shared fleet, and each fetched report must render
// byte-identically to the same check run single-process. It exercises the
// whole service path — submission validation, queueing, session
// multiplexing, report and witness artifacts — in one process.
func smokeCheck(out io.Writer) error {
	w := dialWorker(dist.WorkConfig{Slots: 2}, nil)
	l, err := startLoopback(jobd.Config{MaxActive: len(smokeCases)}, w, w)
	if err != nil {
		return err
	}
	defer l.stop()
	fmt.Fprintf(out, "smoke: daemon + 2 TCP workers on %s, %d concurrent jobs\n", l.addr, len(smokeCases))
	if _, err := l.check(out, smokeCases); err != nil {
		return err
	}
	fmt.Fprintf(out, "smoke: %d job reports byte-identical to single-process runs\n", len(smokeCases))
	return nil
}

// worker joins the fleet of the daemon at addr and works until ctx ends.
type worker func(ctx context.Context, addr string)

// dialWorker is a worker that dials once and serves leases under wcfg.
// faults, when non-nil, scripts its connection (latency, a hang).
func dialWorker(wcfg dist.WorkConfig, faults *chaos.Script) worker {
	return func(ctx context.Context, addr string) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		if faults != nil {
			conn = chaos.WrapConn(conn, *faults)
		}
		dist.WorkCfg(ctx, conn, wcfg, harness.Resolve)
	}
}

// launch starts each worker against addr, tracked by wg.
func launch(ctx context.Context, wg *sync.WaitGroup, addr string, workers ...worker) {
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w(ctx, addr)
		}()
	}
}

// loopback is one in-process daemon serving on 127.0.0.1 with its workers
// joined: the service every in-process smoke runs its jobs through.
type loopback struct {
	d    *jobd.Daemon
	addr string
	stop func() // stops the daemon, then waits for its workers
}

// startLoopback builds a daemon from cfg, with the harness resolver and
// admission check filled in, serves it on an ephemeral loopback port and
// launches each worker against it.
func startLoopback(cfg jobd.Config, workers ...worker) (*loopback, error) {
	cfg.Resolve, cfg.Validate = harness.Resolve, harness.ValidateJob
	d, err := jobd.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- d.Run(ctx) }()
	go d.Serve(ln)
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	launch(ctx, &wg, addr, workers...)
	return &loopback{d: d, addr: addr, stop: func() {
		cancel()
		<-runDone
		wg.Wait()
		ln.Close()
	}}, nil
}

// check submits cases to the daemon and verifies every job's report
// against its single-process run. It returns the job ids.
func (l *loopback) check(out io.Writer, cases []harness.Options) ([]string, error) {
	cl, err := jobd.Dial(l.addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	ids, err := submit(cl, cases)
	if err != nil {
		return nil, err
	}
	return ids, verify(out, cl, ids, cases, "daemon")
}

// submit submits one job per case and returns their ids, failing on any
// rejection.
func submit(cl *jobd.Client, cases []harness.Options) ([]string, error) {
	ids := make([]string, len(cases))
	for i, opts := range cases {
		job, err := harness.CheckJob(opts)
		if err != nil {
			return nil, err
		}
		ack, err := cl.Submit(job)
		if err != nil {
			return nil, err
		}
		if ack.Err != "" {
			return nil, fmt.Errorf("smoke submission rejected: %s", ack.Err)
		}
		ids[i] = ack.ID
	}
	return ids, nil
}

// verify awaits each job of ids and byte-compares its fetched report with
// the single-process Check of its case through harness.MatchReport, which
// writes the report to out; label names the tested path in a divergence. A
// job that found violations must also carry a witness listing every one, in
// order, with its schedule and message.
func verify(out io.Writer, cl *jobd.Client, ids []string, cases []harness.Options, label string) error {
	for i, opts := range cases {
		rep, err := awaitReport(cl, ids[i])
		if err != nil {
			return err
		}
		single, err := harness.Check(opts)
		if err != nil {
			return err
		}
		got := &harness.CheckReport{Protocol: single.Protocol, Params: rep.Job.Params, Explore: rep.Report.Explore()}
		if err := harness.MatchReport(out, opts, single, got, label); err != nil {
			return fmt.Errorf("job %s: %w", ids[i], err)
		}
		if nv := len(single.Explore.Violations); nv > 0 && (rep.Witness == nil || len(rep.Witness.Violations) != nv) {
			return fmt.Errorf("job %s: witness artifact missing or incomplete", ids[i])
		}
		for k, v := range single.Explore.Violations {
			if w := rep.Witness.Violations[k]; !slices.Equal(w.Schedule, v.Schedule) || w.Err != v.Err.Error() {
				return fmt.Errorf("job %s: witness violation %d is %v, want %v", ids[i], k, w.Schedule, v.Schedule)
			}
		}
	}
	return nil
}

// awaitReport polls until the job finishes and returns its artifact.
func awaitReport(cl *jobd.Client, id string) (*wire.JobReport, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		info, err := cl.Status(id)
		if err != nil {
			return nil, err
		}
		switch jobd.JobState(info.State) {
		case jobd.StateDone:
			return cl.Fetch(id)
		case jobd.StateQueued, jobd.StateRunning:
			time.Sleep(10 * time.Millisecond)
		default:
			return nil, fmt.Errorf("smoke job %s ended %s: %s", id, info.State, info.Err)
		}
	}
	return nil, errors.New("smoke job timed out")
}
