// Command augstress stress-tests the augmented snapshot implementation
// through the harness: many seeded random schedules of mixed
// Scan/Block-Update workloads, each checked offline against the §3
// specification (linearization, returned views, yield conditions, Lemma 2
// step counts).
//
// Usage:
//
//	augstress [-f 4] [-m 3] [-ops 8] [-seeds 200]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"revisionist/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "augstress:", err)
		if harness.IsUsage(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("augstress", flag.ContinueOnError)
	var (
		f       = fs.Int("f", 4, "processes")
		m       = fs.Int("m", 3, "components")
		ops     = fs.Int("ops", 8, "operations per process")
		seeds   = fs.Int("seeds", 200, "number of seeded schedules")
		workers = harness.WorkersFlag(fs)
		prune   = harness.PruneFlag(fs)
	)
	if err := harness.ParseFlags(fs, args); err != nil {
		return err
	}
	rep, err := harness.Stress(harness.Options{
		Workers: *workers,
		Prune:   *prune, // seed-enumerated stress has no DFS to prune; accepted for a uniform flag surface
		F:       *f,
		M:       *m,
		Ops:     *ops,
		Seeds:   *seeds,
	})
	if err != nil {
		return err
	}
	if rep.Violation != nil {
		return fmt.Errorf("seed %d: SPEC VIOLATION: %w", rep.FailedSeed, rep.Violation)
	}
	fmt.Fprintf(out, "ok: %d schedules, %d Block-Updates (%d yielded, %.1f%%), %d Scans — all §3 checks passed\n",
		rep.Schedules, rep.BlockUpdates, rep.Yields,
		100*float64(rep.Yields)/float64(max(rep.BlockUpdates, 1)), rep.Scans)
	return nil
}
