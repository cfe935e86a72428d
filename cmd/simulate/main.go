// Command simulate runs the revisionist simulation on any registered
// protocol and reports outputs, operation counts and revision statistics.
// With -layout it only prints the Figure 1 architecture for the chosen
// protocol and parameters; with -list it prints the protocol registry.
//
// Usage:
//
//	simulate -protocol kset -n 9 -k 7 -f 3 [-d 0] [-seed 1]
//	simulate -protocol firstvalue -n 4 -f 4
//	simulate -protocol kset -layout -f 3 -d 1
//	simulate -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"revisionist/internal/bounds"
	"revisionist/internal/harness"
	"revisionist/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "simulate:", err)
		if harness.IsUsage(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	shared := harness.BindFlags(fs, "kset")
	var (
		f        = fs.Int("f", 3, "simulators")
		d        = fs.Int("d", 0, "direct simulators")
		seed     = fs.Int64("seed", 1, "schedule seed")
		layout   = fs.Bool("layout", false, "print the Figure 1 layout and exit")
		decomp   = fs.Bool("decompose", false, "print the block decomposition of the run (§4.3)")
		validate = fs.Bool("validate", true, "reconstruct and replay the simulated execution (Lemmas 26-27)")
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

	opts := harness.Options{
		Protocol: shared.Protocol,
		Params:   shared.Params,
		Workers:  shared.Workers,
		Prune:    shared.Prune,
		Seed:     *seed,
		F:        *f,
		D:        *d,
		Validate: *validate,
	}
	if *layout {
		cfg, err := harness.Plan(opts)
		if err != nil {
			return err
		}
		harness.WriteLayout(out, cfg)
		return nil
	}

	rep, err := harness.Run(opts)
	if err != nil {
		return fmt.Errorf("simulation failed: %w", err)
	}
	cfg, res := rep.Config, rep.Result

	harness.WriteLayout(out, cfg)
	fmt.Fprintf(out, "\nprotocol: %s, task: %s, simulator inputs: %v\n", rep.Protocol.Name, rep.Task.Name(), rep.Inputs)
	fmt.Fprintf(out, "%4s %6s %10s %8s %8s %8s %10s\n", "sim", "done", "output", "BUs", "scans", "revis.", "H-steps")
	for i := 0; i < cfg.F; i++ {
		fmt.Fprintf(out, "%4d %6v %10v %8d %8d %8d %10d\n",
			i, res.Done[i], res.Outputs[i], res.BlockUpdates[i], res.Scans[i], res.Revisions[i], res.StepsBy[i])
	}
	fmt.Fprintf(out, "total real-system steps: %d\n", res.Steps)
	if rep.TaskErr != nil {
		fmt.Fprintln(out, "task validation: FAILED:", rep.TaskErr)
	} else {
		fmt.Fprintln(out, "task validation: ok")
	}
	if rep.SpecErr != nil {
		fmt.Fprintln(out, "augmented snapshot spec: FAILED:", rep.SpecErr)
	} else {
		fmt.Fprintln(out, "augmented snapshot spec: ok")
	}
	if rep.Validated {
		if rep.ReconErr != nil {
			fmt.Fprintln(out, "Lemma 26/27 reconstruction: FAILED:", rep.ReconErr)
		} else {
			fmt.Fprintln(out, "Lemma 26/27 reconstruction: ok (simulated execution replayed as a legal execution of the protocol)")
		}
	}
	if *decomp {
		dec, err := trace.BlockDecomposition(res.Log, cfg.M)
		if err != nil {
			fmt.Fprintln(out, "block decomposition: FAILED:", err)
		} else {
			fmt.Fprintln(out, "block decomposition (§4.3):")
			fmt.Fprint(out, dec.Summary())
		}
	}
	for i := 0; i < cfg.NumCovering(); i++ {
		capOps := bounds.SimulationOpsCap(cfg.M, i+1)
		fmt.Fprintf(out, "covering simulator %d: %d ops <= 2*b(%d)+1 = %.3g: %v\n",
			i, res.Operations(i), i+1, capOps, float64(res.Operations(i)) <= capOps)
	}
	return nil
}
