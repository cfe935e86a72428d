// Command modelcheck exhaustively explores the schedules of a small instance
// of any registered protocol (bounded depth) and reports safety violations
// with replayable schedules. It is the tool behind the falsification
// experiments: protocols below the paper's space bounds must have violating
// schedules, and correct ones must not. With -fuzz it instead hill-climbs an
// adversarial schedule search maximizing total scheduler steps (livelock
// pressure).
//
// Usage:
//
//	modelcheck -protocol consensus -n 2 -depth 22
//	modelcheck -protocol firstvalue-consensus -n 2 -depth 12
//	modelcheck -protocol aan -n 3 -eps 0.25 -depth 26
//	modelcheck -protocol consensus -n 2 -fuzz 200
//	modelcheck -protocol firstvalue-consensus -n 2 -depth 12 -witness v.json
//	modelcheck -replay v.json
//
// Violating schedules can be dumped to a JSON witness file (-witness) and
// re-executed later (-replay). SIGINT during a long exploration prints the
// partial report gathered so far instead of dying silently. For a
// multi-machine search, see distcheck.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"revisionist/internal/harness"
	"revisionist/internal/obs"
	"revisionist/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "modelcheck:", err)
		if harness.IsUsage(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("modelcheck", flag.ContinueOnError)
	shared := harness.BindFlags(fs, "consensus").BindBounds(fs)
	var (
		fuzz     = fs.Int("fuzz", 0, "fuzz iterations; > 0 switches to adversarial schedule search (-depth/-maxruns/-maxviol do not apply)")
		seed     = fs.Int64("seed", 1, "fuzz search seed")
		witness  = fs.String("witness", "", "write the violating schedules to FILE as a JSON witness")
		replay   = fs.String("replay", "", "re-execute the schedules of a JSON witness FILE instead of exploring")
		progress = fs.Duration("progress", 0, "print live search progress (runs/sec, pruned ratio, frontier) to stderr every DUR (0 = off)")
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
	if *replay != "" {
		return harness.ReplayWitness(out, *replay)
	}

	// SIGINT turns a long exploration into a partial report instead of a
	// silent death: the explorer polls the cancelled context between
	// schedules and returns what it merged so far.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	opts := harness.Options{
		Protocol:      shared.Protocol,
		Params:        shared.Params,
		Workers:       shared.Workers,
		Prune:         shared.Prune,
		Symmetry:      shared.Symmetry,
		Seed:          *seed,
		MaxDepth:      shared.MaxDepth,
		MaxRuns:       shared.MaxRuns,
		MaxViolations: shared.MaxViolations,
		Iterations:    *fuzz,
		Interrupted:   func() bool { return ctx.Err() != nil },
	}
	if *progress > 0 {
		// Progress is a pure side channel over a private registry: the report
		// on out stays byte-identical, the ticker lines go to stderr.
		opts.Obs = trace.NewSearchObs(obs.NewRegistry())
		stop := harness.StartProgress(os.Stderr, opts.Obs, *progress)
		defer stop()
	}
	if *fuzz > 0 {
		if *witness != "" {
			return &harness.UsageError{Err: fmt.Errorf("-witness records exhaustive-check violations; it does not apply to -fuzz")}
		}
		rep, err := harness.Fuzz(opts, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s n=%d: fuzzed %d schedules, best adversary reached %.0f steps\n",
			rep.Protocol.Name, rep.Params.N, rep.Fuzz.Evaluated, rep.Fuzz.BestScore)
		fmt.Fprintf(out, "best schedule prefix: %v\n", rep.Fuzz.BestSchedule)
		return nil
	}

	rep, err := harness.Check(opts)
	// Under -symmetry a completed check also runs the unreduced (-prune only)
	// search so the report can state the orbit-collapse ratio: how many
	// pid-permuted duplicates the canonical fingerprint merged away.
	var baseline *trace.ExploreReport
	if shared.Symmetry && err == nil && rep != nil {
		base := opts
		base.Symmetry = false
		base.Prune = true
		if baseRep, berr := harness.Check(base); berr == nil {
			baseline = baseRep.Explore
		}
	}
	exit := harness.CheckOutcome(out, rep, err, shared.MaxDepth, shared.Prune, shared.Symmetry, baseline)
	if rep == nil {
		return exit
	}
	if *witness != "" {
		if werr := harness.WriteWitness(*witness, rep, shared.MaxDepth); werr != nil {
			return werr
		}
		fmt.Fprintf(out, "wrote %d violation(s) to %s\n", len(rep.Explore.Violations), *witness)
	}
	return exit
}
