// Command distcheck is the distributed model checker: the exhaustive
// schedule exploration of modelcheck sharded across machines. One process
// coordinates (-serve), probing the schedule tree into disjoint subtree
// prefixes and leasing them to workers; any number of processes join as
// workers (-connect), running leased subtrees on their local pool and
// streaming results (and, under -prune, visited-state closures) back. The
// merged report is byte-identical to the single-process modelcheck run for
// any worker count, arrival order, or mid-run worker death — dead workers'
// subtrees are simply re-leased.
//
// Usage:
//
//	distcheck -serve :9464 -protocol kset -n 4 -k 3 -prune     # coordinator
//	distcheck -connect host:9464 -workers 8                    # each worker
//	distcheck -smoke -protocol firstvalue -n 4 -prune          # self-check
//
// Workers take the protocol and bounds from the coordinator, so only the
// coordinator needs the job flags. -smoke runs both roles in one process —
// a coordinator plus two TCP-loopback workers — and fails unless the
// distributed report is byte-identical to the single-process one.
//
// SIGINT on the coordinator prints the partial merged report (subtrees
// completed so far) instead of dying silently.
//
// Against a checkd daemon (see cmd/checkd), distcheck is also the job
// client:
//
//	distcheck -daemon host:9470 -submit -protocol kset -n 4 -k 3 -prune
//	distcheck -daemon host:9470 -status j0001
//	distcheck -daemon host:9470 -result j0001
//	distcheck -daemon host:9470 -cancel j0001
//	distcheck -daemon host:9470 -trace j0001
//	distcheck -daemon host:9470 -jobs
//
// Exit codes are uniform across every mode: 0 clean (or -h), 2 usage error
// (bad flags, rejected submission), 3 the check completed and found
// violations, 4 the check was interrupted before completion, 1 anything
// else (connection failure, runtime error, job failed or canceled).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync"

	"revisionist/internal/harness"
	"revisionist/internal/obs"
	"revisionist/internal/trace"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "distcheck:", err)
	}
	if code := exitCode(err); code != 0 {
		os.Exit(code)
	}
}

// exitCode maps a run outcome to the process exit code — the CLI contract
// scripts build on: 0 clean or -h, 2 usage, 3 violations found, 4
// interrupted, 1 everything else (connection failures included).
func exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if harness.IsUsage(err) {
		return 2
	}
	var viol *harness.ViolationsError
	if errors.As(err, &viol) {
		return 3
	}
	var intr *harness.InterruptedError
	if errors.As(err, &intr) {
		return 4
	}
	return 1
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("distcheck", flag.ContinueOnError)
	shared := harness.BindFlags(fs, "consensus")
	var (
		depth   = fs.Int("depth", 20, "max schedule depth")
		maxRuns = fs.Int("maxruns", 200_000, "max schedules")
		maxViol = fs.Int("maxviol", 3, "stop after this many violations")
		serve   = fs.String("serve", "", "coordinate on this TCP listen address (e.g. :9464)")
		connect = fs.String("connect", "", "join the coordinator at this address as a worker")
		smoke   = fs.Bool("smoke", false, "loopback self-check: coordinator + two local TCP workers vs the single-process run")
		daemon  = fs.String("daemon", "", "checkd daemon address for the client verbs (-submit, -status, -result, -cancel, -trace, -jobs)")
		submit  = fs.Bool("submit", false, "submit the job described by the protocol flags to -daemon and print its id")
		prio    = fs.Int("priority", 0, "fair-share priority for -submit: 1 (lowest) to 9 (highest), 0 = default (5)")
		status  = fs.String("status", "", "print this job id's state on -daemon")
		result  = fs.String("result", "", "fetch and render this job id's report from -daemon")
		cancelJ = fs.String("cancel", "", "cancel this job id on -daemon")
		traceJ  = fs.String("trace", "", "dump this job id's flight recording (timestamped lifecycle events) from -daemon")
		jobs    = fs.Bool("jobs", false, "list every job on -daemon, with the daemon's queue headroom")
		prog    = fs.Duration("progress", 0, "print live search progress to stderr every DUR where the search runs locally: -connect workers and -smoke (0 = off)")
	)
	if err := harness.ParseFlags(fs, args); err != nil {
		return err
	}
	if err := shared.Resolve(); err != nil {
		fs.Usage()
		return err
	}
	if shared.List {
		harness.WriteRegistry(out)
		return nil
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	opts := harness.Options{
		Protocol:      shared.Protocol,
		Params:        shared.Params,
		Workers:       shared.Workers,
		Prune:         shared.Prune,
		Symmetry:      shared.Symmetry,
		MaxDepth:      *depth,
		MaxRuns:       *maxRuns,
		MaxViolations: *maxViol,
		Serve:         *serve,
		Connect:       *connect,
		Priority:      *prio,
		Interrupted:   func() bool { return ctx.Err() != nil },
	}

	if *prog > 0 {
		// Progress is a pure side channel over a private registry: the report
		// on out stays byte-identical, the ticker lines go to stderr. It only
		// shows activity in modes that explore locally (-connect, -smoke);
		// elsewhere the counters simply never move.
		opts.Obs = trace.NewSearchObs(obs.NewRegistry())
		stop := harness.StartProgress(os.Stderr, opts.Obs, *prog)
		defer stop()
	}

	verbs := 0
	for _, on := range []bool{*submit, *status != "", *result != "", *cancelJ != "", *traceJ != "", *jobs} {
		if on {
			verbs++
		}
	}
	modes := verbs
	for _, on := range []bool{*serve != "", *connect != "", *smoke} {
		if on {
			modes++
		}
	}
	if verbs == 0 && *daemon != "" {
		fs.Usage()
		return &harness.UsageError{Err: fmt.Errorf("-daemon needs one of -submit, -status ID, -result ID, -cancel ID, -trace ID, -jobs")}
	}
	if verbs == 1 && *daemon == "" {
		fs.Usage()
		return &harness.UsageError{Err: fmt.Errorf("-submit/-status/-result/-cancel/-trace/-jobs need -daemon ADDR")}
	}
	if modes != 1 {
		fs.Usage()
		return &harness.UsageError{Err: fmt.Errorf("pick exactly one of -serve ADDR, -connect ADDR, -smoke, or a -daemon verb")}
	}
	if verbs == 1 {
		return runClient(out, *daemon, clientVerb{
			submit: *submit, status: *status, result: *result, cancel: *cancelJ, trace: *traceJ, jobs: *jobs,
		}, opts)
	}
	switch {
	case *connect != "":
		fmt.Fprintf(out, "worker: joining coordinator at %s with %d slot(s)\n", *connect, trace.ResolveWorkers(opts.Workers))
		if err := harness.ConnectCheck(ctx, opts, nil); err != nil {
			return err
		}
		fmt.Fprintln(out, "worker: released by coordinator")
		return nil
	case *serve != "":
		job, err := harness.CheckJob(opts) // resolves the protocol: fail before listening
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "coordinator: serving %s n=%d on %s\n", job.Protocol, job.Params.N, ln.Addr())
		rep, err := harness.ServeCheck(ctx, opts, ln)
		return harness.CheckOutcome(out, rep, err, *depth, shared.Prune, shared.Symmetry, nil)
	default:
		return smokeCheck(ctx, out, opts)
	}
}

// smokeCheck is the `make dist-smoke` payload: run the single-process Check,
// then the same job through a real TCP-loopback coordinator with two
// workers, and fail unless the two rendered reports are byte-identical.
func smokeCheck(ctx context.Context, out io.Writer, opts harness.Options) error {
	single, err := harness.Check(opts)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
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
			harness.ConnectCheck(ctx, opts, conn)
		}()
	}
	distRep, derr := harness.ServeCheck(ctx, opts, ln)
	wg.Wait()
	if derr != nil {
		// Includes trace.ErrInterrupted: a ^C mid-smoke aborts the check
		// rather than comparing a partial report and misreporting divergence.
		return derr
	}

	fmt.Fprintf(out, "smoke: coordinator + 2 TCP-loopback workers on %s n=%d\n", single.Protocol.Name, single.Params.N)
	if err := harness.MatchReport(out, opts, single, distRep, "distributed"); err != nil {
		return err
	}
	fmt.Fprintln(out, "smoke: distributed report byte-identical to single-process run")
	return nil
}
