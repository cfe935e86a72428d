// Command spacebounds prints the paper's space bounds (Corollaries 33 and
// 34) for the registered protocols: for every protocol with registered
// bounds it sweeps the protocol's own parameter schema over a grid and
// prints the lower bound, the best known upper bound (which is what the
// registered protocol construction actually uses), and whether they are
// tight.
//
// Usage:
//
//	spacebounds [-nmax 32]
//	spacebounds -protocol kset -nmax 64
//	spacebounds -list
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"revisionist/internal/harness"
	"revisionist/internal/protocol"
	"revisionist/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "spacebounds:", err)
		if harness.IsUsage(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("spacebounds", flag.ContinueOnError)
	// The shared flag surface includes -workers (parallelizes the sweep) and
	// -prune (uniform across the cmds; the bounds tables are closed-form, so
	// there is no exploration to prune here).
	shared := harness.BindListFlags(fs, "")
	nmax := fs.Int("nmax", 32, "largest n in the sweep")
	if err := harness.ParseFlags(fs, args); err != nil {
		return err
	}
	if err := shared.Resolve(); err != nil {
		fs.Usage()
		return err
	}
	if *nmax > protocol.MaxN {
		return &harness.UsageError{Err: fmt.Errorf("-nmax %d: protocols admit at most n = %d", *nmax, protocol.MaxN)}
	}
	if shared.List {
		harness.WriteRegistry(out)
		return nil
	}

	protos := protocol.Protocols()
	if shared.Protocol != "" {
		pr, err := protocol.Lookup(shared.Protocol)
		if err != nil {
			return &harness.UsageError{Err: err}
		}
		if pr.SpaceBounds == nil {
			return &harness.UsageError{Err: fmt.Errorf("protocol %q has no registered space bounds", pr.Name)}
		}
		protos = []*protocol.Protocol{pr}
	}

	var unbounded []string
	var bounded []*protocol.Protocol
	for _, pr := range protos {
		if pr.SpaceBounds == nil {
			unbounded = append(unbounded, pr.Name)
			continue
		}
		bounded = append(bounded, pr)
	}
	// Sweep each protocol's table on the worker pool; buffers print in
	// registry order, so the output never depends on -workers.
	tables := make([]bytes.Buffer, len(bounded))
	trace.RunOnPool(trace.ResolveWorkers(shared.Workers), len(bounded), func(i int) {
		printTable(&tables[i], bounded[i], *nmax)
	})
	for i := range tables {
		if _, err := tables[i].WriteTo(out); err != nil {
			return err
		}
	}
	if len(unbounded) > 0 {
		fmt.Fprintf(out, "no registered space bounds: %s\n", strings.Join(unbounded, ", "))
	}
	return nil
}

// printTable sweeps pr's parameter schema and prints one bound row per valid
// parameter combination.
func printTable(out io.Writer, pr *protocol.Protocol, nmax int) {
	fmt.Fprintf(out, "== %s — %s ==\n", pr.Name, pr.Doc)
	for _, s := range pr.Schema {
		fmt.Fprintf(out, "%10s ", s.Name)
	}
	fmt.Fprintf(out, "| %9s %9s %6s\n", "lower", "upper", "tight")
	sweep(out, pr, protocol.Params{}, 0, nmax)
	fmt.Fprintln(out)
}

// sweep recursively assigns candidate values to schema parameters in order
// (so later parameters' candidates can depend on earlier choices), printing
// a bounds row for every combination the protocol validates.
func sweep(out io.Writer, pr *protocol.Protocol, p protocol.Params, idx, nmax int) {
	if idx == len(pr.Schema) {
		resolved, err := pr.Resolve(p)
		if err != nil {
			return // out-of-range combination; skip silently
		}
		lb, ub, err := pr.SpaceBounds(resolved)
		if err != nil {
			return
		}
		for _, s := range pr.Schema {
			fmt.Fprintf(out, "%10s ", formatParam(s, resolved))
		}
		tight := ""
		if lb == ub {
			tight = "yes"
		}
		fmt.Fprintf(out, "| %9d %9d %6s\n", lb, ub, tight)
		return
	}
	s := pr.Schema[idx]
	for _, v := range candidates(s, p, nmax) {
		q := p
		q.Set(s.Name, v)
		sweep(out, pr, q, idx+1, nmax)
	}
}

// candidates returns the sweep grid for one parameter, given the values
// already chosen for earlier schema parameters. The schema default always
// leads, so fixed-size protocols (e.g. aa2's n = 2) keep their one valid row.
func candidates(s protocol.ParamSpec, p protocol.Params, nmax int) []float64 {
	var vals []float64
	switch s.Name {
	case "n":
		vals = []float64{s.Default, 4, 8, 16, float64(nmax)}
	case "k":
		vals = []float64{1, 2, float64(p.N / 2), float64(p.N - 1)}
	case "x":
		vals = []float64{1, float64((p.K + 1) / 2), float64(p.K)}
	case "eps":
		vals = []float64{1e-1, 1e-2, 1e-4, 1e-8, 1e-16}
	default:
		vals = []float64{s.Default}
	}
	seen := map[float64]bool{}
	var out []float64
	for _, v := range vals {
		if v <= 0 || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// formatParam renders one resolved parameter by its schema kind.
func formatParam(s protocol.ParamSpec, p protocol.Params) string {
	if s.Kind == protocol.Int {
		return fmt.Sprintf("%d", int(p.Get(s.Name)))
	}
	return fmt.Sprintf("%.0e", p.Get(s.Name))
}
