// Package protocol is the declarative registry of the protocol zoo. Every
// protocol the repository can simulate, model-check, fuzz or measure is
// described once, by a Protocol descriptor — name, one-line doc, typed
// parameter schema with defaults and validation, canonical inputs, the task
// specification its outputs are checked against, and optionally the paper's
// space bounds — and registered in a global Registry. Tools never hand-roll
// per-protocol wiring: they look a name up, fill parameters from the schema,
// and call Instantiate, which returns a uniform Instance ready for any of
// the harness verbs (see internal/harness).
package protocol

import (
	"fmt"
	"math"

	"revisionist/internal/proto"
	"revisionist/internal/spec"
)

// Params are the typed parameters protocols draw from. A protocol's Schema
// names the subset that applies to it; zero-valued fields of a Params are
// "unset" and take the schema default (zero is not a legal value for any
// parameter, so there is no ambiguity).
type Params struct {
	// N is the number of processes the protocol is built for.
	N int
	// K is the agreement bound of k-set agreement.
	K int
	// X is the obstruction degree (lanes) of the lane-partitioned protocol.
	X int
	// Eps is the agreement precision of approximate agreement.
	Eps float64
}

// Get returns the schema-named parameter ("n", "k", "x", "eps") as a
// float64 (integers exactly). It panics on an unknown name: parameter names
// come from schemas, not user input.
func (p Params) Get(name string) float64 {
	switch name {
	case "n":
		return float64(p.N)
	case "k":
		return float64(p.K)
	case "x":
		return float64(p.X)
	case "eps":
		return p.Eps
	default:
		panic(fmt.Sprintf("protocol: unknown parameter %q", name))
	}
}

// Set stores v into the schema-named parameter; Int-kinded parameters are
// truncated. Like Get, it panics on an unknown name.
func (p *Params) Set(name string, v float64) {
	switch name {
	case "n":
		p.N = int(v)
	case "k":
		p.K = int(v)
	case "x":
		p.X = int(v)
	case "eps":
		p.Eps = v
	default:
		panic(fmt.Sprintf("protocol: unknown parameter %q", name))
	}
}

// Kind is the type of a parameter.
type Kind int

// Parameter kinds.
const (
	Int Kind = iota
	Float
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Float {
		return "float"
	}
	return "int"
}

// ParamSpec describes one schema entry: which Params field the protocol
// reads, its default, and a short doc line for -list output.
type ParamSpec struct {
	Name    string // "n", "k", "x" or "eps"
	Kind    Kind
	Default float64 // integer-valued for Int parameters
	Doc     string
}

// FormatDefault renders the default for listings.
func (s ParamSpec) FormatDefault() string {
	if s.Kind == Int {
		return fmt.Sprintf("%d", int(s.Default))
	}
	return fmt.Sprintf("%g", s.Default)
}

// Instance is a concrete, runnable protocol instance: the uniform shape
// every harness verb consumes.
type Instance struct {
	// Protocol is the descriptor this instance came from.
	Protocol *Protocol
	// Params are the fully resolved (defaulted, validated) parameters.
	Params Params
	// Procs are the Params.N fresh processes.
	Procs []proto.Process
	// M is the number of components of the multi-writer snapshot Π runs on.
	M int
	// Task is the colorless task the outputs are validated against.
	Task spec.Task
	// Inputs are the per-process input values (len Params.N).
	Inputs []spec.Value
}

// Symmetry declares a protocol's process-interchangeability structure, the
// input to symmetry-reduced state fingerprinting (sched.Canonicalizer).
// Soundness is the declarer's obligation: class members must run the same
// program up to their own input and owned components, and when RenameInputs
// is set the task must be invariant under bijective renaming of the class
// members' input values. An all-zero Symmetry declares "no symmetry" and
// makes the reduction an exact no-op.
type Symmetry struct {
	// Classes are disjoint sets of interchangeable pids.
	Classes [][]int
	// Owned lists, per pid, the snapshot components that process owns
	// (addresses by its identity); co-permuted with the process. Nil when no
	// class member owns components.
	Owned [][]int
	// RenameInputs additionally collapses configurations that differ by which
	// class member wrote which input: declared input values hash as renamed
	// role tokens. Requires the task to be invariant under bijectively
	// renaming the class inputs (true for the discrete tasks here, false for
	// eps-approximate agreement, whose validity interval depends on values).
	RenameInputs bool
}

// Protocol declaratively describes one protocol of the zoo.
type Protocol struct {
	// Name is the registry key, e.g. "kset".
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Schema lists the parameters the protocol reads, with defaults.
	Schema []ParamSpec
	// Validate rejects out-of-range parameter combinations. Defaults have
	// already been applied when it runs. May be nil.
	Validate func(p Params) error
	// DefaultInputs returns count canonical, pairwise distinct inputs
	// (integers for discrete tasks, floats in [0, 1] for approximate
	// agreement). The harness uses count = p.N for direct runs and count = f
	// for the revisionist simulation's simulator inputs.
	DefaultInputs func(p Params, count int) []spec.Value
	// Build constructs the p.N processes with the given inputs (len p.N) and
	// reports the number m of snapshot components they use.
	Build func(p Params, inputs []spec.Value) ([]proto.Process, int, error)
	// Task returns the task specification for the resolved parameters.
	Task func(p Params) spec.Task
	// Symmetry returns the process-interchangeability declaration for the
	// resolved parameters. Mandatory: protocols without any symmetry must say
	// so explicitly by returning the zero Symmetry.
	Symmetry func(p Params) Symmetry
	// SpaceBounds optionally returns the paper's lower and upper bounds (in
	// registers) for the task at these parameters; nil when no bound is
	// registered for the protocol.
	SpaceBounds func(p Params) (lb, ub int, err error)
}

// MaxN is the largest process count n an instance may have. Every way in —
// command-line flags, witness replay and job admission — resolves through
// Resolve, so a submission cannot make a tool build an arbitrary number of
// processes. It admits the widest sweep documented (spacebounds -nmax 64).
const MaxN = 64

// Resolve applies schema defaults to unset fields of p and validates the
// result: first the generic schema constraints — every parameter must be
// positive after defaulting (zero means "unset" by convention, so a negative
// value can only be a hostile or corrupted submission) and n at most MaxN —
// then the protocol's own Validate. Both report structured *ValidationError
// values (wrapped with the protocol name), so services surface per-field
// rejections instead of a bare string.
func (pr *Protocol) Resolve(p Params) (Params, error) {
	var ve ValidationError
	for _, s := range pr.Schema {
		if p.Get(s.Name) == 0 {
			p.Set(s.Name, s.Default)
		}
		if v := p.Get(s.Name); v <= 0 {
			ve.Add(s.Name, p.Get(s.Name), "must be positive")
		}
	}
	if p.N > MaxN {
		ve.Add("n", p.N, fmt.Sprintf("must be at most %d", MaxN))
	}
	if err := ve.OrNil(); err != nil {
		return p, fmt.Errorf("protocol %s: %w", pr.Name, err)
	}
	if pr.Validate != nil {
		if err := pr.Validate(p); err != nil {
			return p, fmt.Errorf("protocol %s: %w", pr.Name, err)
		}
	}
	return p, nil
}

// Instantiate resolves p against the schema and builds a fresh instance with
// the protocol's canonical inputs. Instances are single-use: processes carry
// run state, so build a new instance per run.
func (pr *Protocol) Instantiate(p Params) (*Instance, error) {
	p, err := pr.Resolve(p)
	if err != nil {
		return nil, err
	}
	return pr.build(p, pr.DefaultInputs(p, p.N))
}

// InstantiateWith is Instantiate with caller-chosen inputs (len p.N after
// resolution).
func (pr *Protocol) InstantiateWith(p Params, inputs []spec.Value) (*Instance, error) {
	p, err := pr.Resolve(p)
	if err != nil {
		return nil, err
	}
	return pr.build(p, inputs)
}

func (pr *Protocol) build(p Params, inputs []spec.Value) (*Instance, error) {
	if len(inputs) != p.N {
		return nil, fmt.Errorf("protocol %s: got %d inputs for n=%d processes", pr.Name, len(inputs), p.N)
	}
	procs, m, err := pr.Build(p, inputs)
	if err != nil {
		return nil, fmt.Errorf("protocol %s: %w", pr.Name, err)
	}
	return &Instance{
		Protocol: pr,
		Params:   p,
		Procs:    procs,
		M:        m,
		Task:     pr.Task(p),
		Inputs:   inputs,
	}, nil
}

// intInputs returns count distinct integer inputs 100, 101, ...
func intInputs(_ Params, count int) []spec.Value {
	in := make([]spec.Value, count)
	for i := range in {
		in[i] = 100 + i
	}
	return in
}

// unitInputs returns count distinct floats evenly spread over [0, 1].
func unitInputs(_ Params, count int) []spec.Value {
	in := make([]spec.Value, count)
	for i := range in {
		in[i] = float64(i) / math.Max(float64(count-1), 1)
	}
	return in
}

// floatSlice converts protocol inputs to the []float64 the approximate
// agreement constructors take.
func floatSlice(inputs []spec.Value) ([]float64, error) {
	fs := make([]float64, len(inputs))
	for i, v := range inputs {
		f, ok := v.(float64)
		if !ok {
			return nil, fmt.Errorf("input %d: %v (%T) is not a float64", i, v, v)
		}
		fs[i] = f
	}
	return fs, nil
}
