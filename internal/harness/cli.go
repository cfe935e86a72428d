package harness

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"revisionist/internal/core"
	"revisionist/internal/protocol"
	"revisionist/internal/trace"
)

// UsageError marks a command-line error (bad flag value, unknown protocol);
// mains conventionally exit 2 on it instead of 1.
type UsageError struct{ Err error }

// Error implements error.
func (e *UsageError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped error.
func (e *UsageError) Unwrap() error { return e.Err }

// IsUsage reports whether err is (or wraps) a UsageError.
func IsUsage(err error) bool {
	var ue *UsageError
	return errors.As(err, &ue)
}

// ParseFlags parses args on fs, classifying failures: -h/-help comes back as
// flag.ErrHelp (mains exit 0 on it), any other parse error as a UsageError
// (mains exit 2).
func ParseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &UsageError{Err: err}
	}
	return nil
}

// Flags is the command-line surface shared by the cmds: protocol selection,
// protocol parameters, search options and -list.
// Bind it to a FlagSet, Parse, then Resolve; the resolved values feed an
// Options directly.
type Flags struct {
	// Protocol is the resolved -protocol value, List the -list value,
	// Workers the validated -workers value (0 = GOMAXPROCS), Prune the
	// -prune value.
	Protocol string
	List     bool
	Workers  int
	Prune    bool
	// Symmetry is the -symmetry value: symmetry-reduced pruning (implies
	// -prune) for Check-style verbs.
	Symmetry bool
	// Params carries the -n/-k/-x/-eps values; 0 means "schema default".
	Params protocol.Params
	// MaxDepth, MaxRuns and MaxViolations are the -depth, -maxruns and
	// -maxviol values (see BindBounds).
	MaxDepth, MaxRuns, MaxViolations int

	protocolF     *string
	listF, pruneF *bool
	symmetryF     *bool
	workersF      *int
	nF, kF, xF    *int
	epsF          *float64
	bounds        bool
}

// BindFlags registers -protocol (defaulting to def), -list and the schema
// parameter flags -n, -k, -x and -eps (all defaulting to 0 = "protocol
// schema default") on fs.
func BindFlags(fs *flag.FlagSet, def string) *Flags {
	f := bindListFlags(fs, def)
	f.nF = fs.Int("n", 0, "processes (0 = protocol default)")
	f.kF = fs.Int("k", 0, "k for k-set agreement (0 = protocol default)")
	f.xF = fs.Int("x", 0, "x for lane-kset (0 = protocol default)")
	f.epsF = fs.Float64("eps", 0, "eps for approximate agreement (0 = protocol default)")
	return f
}

// BindListFlags registers only -protocol and -list, for cmds that never
// execute anything (no parameter overrides).
func BindListFlags(fs *flag.FlagSet, def string) *Flags {
	return bindListFlags(fs, def)
}

func bindListFlags(fs *flag.FlagSet, def string) *Flags {
	f := &Flags{}
	f.protocolF = fs.String("protocol", def,
		"protocol from the registry (see -list): "+strings.Join(protocol.Names(), " | "))
	f.listF = fs.Bool("list", false, "list the protocol registry and exit")
	f.workersF = WorkersFlag(fs)
	f.pruneF = PruneFlag(fs)
	f.symmetryF = SymmetryFlag(fs)
	return f
}

// WorkersFlag registers just the -workers flag — the shared worker-pool size
// of the parallel searches. Results never depend on its value, only
// wall-clock does.
func WorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "search worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
}

// BindBounds registers the exhaustive search's bounds on fs: -depth,
// -maxruns and -maxviol. Resolve requires each to be at least 1: Options
// reads 0 as "default", so a smaller value would search under the default
// bound while the report and the witness echo the flag.
func (f *Flags) BindBounds(fs *flag.FlagSet) *Flags {
	fs.IntVar(&f.MaxDepth, "depth", 20, "max schedule depth")
	fs.IntVar(&f.MaxRuns, "maxruns", 200_000, "max schedules")
	fs.IntVar(&f.MaxViolations, "maxviol", 3, "stop after this many violations")
	f.bounds = true
	return f
}

// PruneFlag registers just the -prune flag — the shared switch for
// state-fingerprint pruning (subtree checkpointing is on either way). It only
// affects exhaustive exploration (Options.Prune, the Check verb); verbs that
// enumerate seeds or run single schedules accept and ignore it, keeping the
// flag surface uniform across the cmds.
func PruneFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("prune", false, "prune exhaustive exploration via state fingerprints (Check-style verbs only)")
}

// SymmetryFlag registers just the -symmetry flag — the shared switch for
// symmetry-reduced pruning: the visited-state cache stores canonical
// fingerprints that collapse process-permutation orbits of the protocol's
// declared interchangeability classes. Implies -prune; a no-op on protocols
// that declare no symmetry. Like -prune it only affects Check-style verbs;
// other verbs accept and ignore it.
func SymmetryFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("symmetry", false, "collapse process-permutation orbits to one canonical state fingerprint (implies -prune; Check-style verbs only)")
}

// Resolve validates the parsed flag values; call it after fs.Parse.
func (f *Flags) Resolve() error {
	f.Protocol = *f.protocolF
	f.List = *f.listF
	if f.workersF != nil {
		if *f.workersF < 0 {
			return &UsageError{Err: fmt.Errorf("harness: -workers must be >= 0, got %d", *f.workersF)}
		}
		f.Workers = *f.workersF
	}
	if f.pruneF != nil {
		f.Prune = *f.pruneF
	}
	if f.symmetryF != nil {
		f.Symmetry = *f.symmetryF
	}
	if f.nF != nil {
		f.Params = protocol.Params{N: *f.nF, K: *f.kF, X: *f.xF, Eps: *f.epsF}
	}
	if f.bounds && min(f.MaxDepth, f.MaxRuns, f.MaxViolations) < 1 {
		return &UsageError{Err: fmt.Errorf("harness: -depth, -maxruns and -maxviol must be >= 1, got %d, %d and %d",
			f.MaxDepth, f.MaxRuns, f.MaxViolations)}
	}
	return nil
}

// WriteRegistry renders the protocol registry with each protocol's parameter
// schema — the shared -list output.
func WriteRegistry(w io.Writer) {
	protos := protocol.Protocols()
	fmt.Fprintf(w, "registered protocols (%d):\n", len(protos))
	for _, pr := range protos {
		fmt.Fprintf(w, "\n%s\n    %s\n", pr.Name, pr.Doc)
		for _, s := range pr.Schema {
			fmt.Fprintf(w, "    -%-4s %-5s default %-5s %s\n", s.Name, s.Kind, s.FormatDefault(), s.Doc)
		}
	}
}

// ViolationsError is the typed "check completed and found violations"
// outcome: distinct from a runtime failure so mains can map it to its own
// exit code (distcheck exits 3 on it). Its rendering is part of the CLI
// surface; keep it stable.
type ViolationsError struct{ N int }

// Error implements error.
func (e *ViolationsError) Error() string {
	return fmt.Sprintf("%d violating schedule(s) found", e.N)
}

// InterruptedError is the typed "check was interrupted before completion"
// outcome (distcheck exits 4 on it). It wraps trace.ErrInterrupted, so
// errors.Is keeps working across the boundary.
type InterruptedError struct{}

// Error implements error.
func (e *InterruptedError) Error() string { return "interrupted before the search completed" }

// Unwrap exposes trace.ErrInterrupted.
func (e *InterruptedError) Unwrap() error { return trace.ErrInterrupted }

// CheckOutcome is the shared post-Check epilogue of modelcheck and
// distcheck: it writes the interrupted banner and the rendered report, and
// returns the process outcome — err itself when the check failed outright, a
// *ViolationsError, an *InterruptedError (an unfinished check must not exit
// 0: "no violations found" covers only the schedules explored), or nil on a
// clean completed check. Centralizing it keeps the two cmds byte-comparable
// (the dist smoke literally diffs their reports), and the typed outcomes let
// mains map each to a distinct exit code.
func CheckOutcome(w io.Writer, rep *CheckReport, err error, maxDepth int, prune, symmetry bool, baseline *trace.ExploreReport) error {
	interrupted := errors.Is(err, trace.ErrInterrupted)
	if err != nil && !interrupted {
		return err
	}
	if interrupted {
		fmt.Fprintln(w, "interrupted: partial results follow")
	}
	WriteCheckReport(w, rep, maxDepth, prune, symmetry, baseline)
	if n := len(rep.Explore.Violations); n > 0 {
		return &ViolationsError{N: n}
	}
	if interrupted {
		return &InterruptedError{}
	}
	return nil
}

// WriteCheckReport renders an exploration report — the shared output of
// modelcheck and the distributed distcheck, which keeps the two byte-
// comparable (the dist smoke check literally diffs them). maxDepth is the
// bound the caller explored under; prune adds the stateful counters, and
// symmetry marks them as orbit-canonical. baseline, when non-nil, is the
// same check's unreduced (-prune only) report; the orbit-collapse ratio is
// printed next to the pruning line. Callers that have no baseline (the
// distributed coordinator, whose single run IS the report) pass nil and the
// line is omitted.
func WriteCheckReport(w io.Writer, rep *CheckReport, maxDepth int, prune, symmetry bool, baseline *trace.ExploreReport) {
	ex := rep.Explore
	fmt.Fprintf(w, "%s n=%d: %d schedules explored (depth <= %d, %d truncated, exhausted=%v)\n",
		rep.Protocol.Name, rep.Params.N, ex.Runs, maxDepth, ex.Truncated, ex.Exhausted)
	if prune || symmetry {
		label := "state pruning"
		if symmetry {
			label = "state pruning (symmetry-reduced)"
		}
		fmt.Fprintf(w, "%s: %d subtrees cut, %d configurations closed\n", label, ex.Pruned, ex.Distinct)
	}
	if symmetry && baseline != nil {
		ratio := float64(baseline.Distinct)
		if ex.Distinct > 0 {
			ratio /= float64(ex.Distinct)
		}
		fmt.Fprintf(w, "orbit collapse: %d -> %d distinct states (%.1fx), %d -> %d runs\n",
			baseline.Distinct, ex.Distinct, ratio, baseline.Runs, ex.Runs)
	}
	if len(ex.Violations) == 0 {
		fmt.Fprintln(w, "no violations found")
		return
	}
	for _, v := range ex.Violations {
		fmt.Fprintf(w, "VIOLATION on schedule %v:\n  %v\n", v.Schedule, v.Err)
	}
}

// MatchReport is the one definition of "byte-identical to single-process"
// every service smoke checks: it renders want, the single-process Check of
// opts, and got, the same check's report from the path under test, with
// WriteCheckReport under opts's bounds. It writes got's rendering to w and
// returns an error quoting both renderings when their bytes differ; label
// names the tested path in that error ("daemon", "distributed", ...).
func MatchReport(w io.Writer, opts Options, want, got *CheckReport, label string) error {
	var single, tested bytes.Buffer
	WriteCheckReport(&single, want, opts.MaxDepth, opts.Prune, opts.Symmetry, nil)
	WriteCheckReport(&tested, got, opts.MaxDepth, opts.Prune, opts.Symmetry, nil)
	w.Write(tested.Bytes())
	if !bytes.Equal(single.Bytes(), tested.Bytes()) {
		return fmt.Errorf("%s report diverges from single-process:\n--- single ---\n%s--- %s ---\n%s",
			label, single.String(), label, tested.String())
	}
	return nil
}

// WriteLayout renders the Figure 1 architecture of a simulation config.
func WriteLayout(w io.Writer, cfg core.Config) {
	fmt.Fprintf(w, "real system: f = %d simulators (%d covering, %d direct) over a %d-component single-writer snapshot H\n",
		cfg.F, cfg.NumCovering(), cfg.D, cfg.F)
	fmt.Fprintf(w, "implements:  %d-component augmented snapshot\n", cfg.M)
	fmt.Fprintf(w, "simulates:   n = %d processes over a %d-component multi-writer snapshot M\n", cfg.N, cfg.M)
	for i := 0; i < cfg.F; i++ {
		kind := "covering"
		if i >= cfg.NumCovering() {
			kind = "direct"
		}
		fmt.Fprintf(w, "  q%-2d (%-8s) simulates P%d = %v\n", i, kind, i, cfg.Partition(i))
	}
}
