// Package spec defines the colorless tasks of the paper (§2) and validates
// protocol outputs against them.
//
// A colorless task is a triple (I, O, Δ) closed under subsets: the input or
// output of any process may be the input or output of another, and the
// specification does not depend on the number of processes. Validation
// therefore receives the *set* of inputs and the *set* of outputs.
package spec

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"revisionist/internal/shmem"
)

// Value is a task input or output: a re-export of shmem.Value, the
// repository's single value alias. Consensus-family tasks use comparable
// values; approximate agreement uses float64.
type Value = shmem.Value

// Task is a colorless task.
type Task interface {
	// Name identifies the task, e.g. "consensus" or "3-set agreement".
	Name() string
	// Validate checks the colorless specification Δ: inputs is the set of
	// input values actually proposed, outputs the set of values output by
	// terminated processes (possibly a strict subset of processes; colorless
	// tasks are subset-closed). It returns nil iff outputs ∈ Δ(inputs).
	Validate(inputs, outputs []Value) error
}

// Consensus is the k = 1 case of k-set agreement: all outputs equal, and the
// common output is some process's input.
type Consensus struct{}

// Name implements Task.
func (Consensus) Name() string { return "consensus" }

// Validate implements Task.
func (Consensus) Validate(inputs, outputs []Value) error {
	return KSetAgreement{K: 1}.Validate(inputs, outputs)
}

// KSetAgreement requires at most K distinct outputs, each of which is some
// process's input.
type KSetAgreement struct {
	K int
}

// Name implements Task.
func (t KSetAgreement) Name() string { return fmt.Sprintf("%d-set agreement", t.K) }

// Validate implements Task. It scans the value lists instead of building
// sets (a process count bounds both), so a passing check allocates nothing;
// values compare with interface ==, as set membership would.
func (t KSetAgreement) Validate(inputs, outputs []Value) error {
	if t.K < 1 {
		return fmt.Errorf("spec: invalid k = %d", t.K)
	}
	for _, v := range outputs {
		if !slices.Contains(inputs, v) {
			return fmt.Errorf("spec: %s validity violated: output %v is not an input", t.Name(), v)
		}
	}
	distinct := 0
	for i := range outputs {
		if isLast(outputs, i) {
			distinct++
		}
	}
	if distinct > t.K {
		return fmt.Errorf("spec: %s agreement violated: %d distinct outputs %v", t.Name(), distinct, distinctSorted(outputs))
	}
	return nil
}

// ApproxAgreement is ε-approximate agreement: every pair of outputs is within
// Eps, and every output lies in [min input, max input]. The paper states the
// task with inputs in {0,1}; validation accepts any real inputs, which is the
// standard generalization.
type ApproxAgreement struct {
	Eps float64
}

// Name implements Task.
func (t ApproxAgreement) Name() string { return fmt.Sprintf("%g-approximate agreement", t.Eps) }

// Validate implements Task.
func (t ApproxAgreement) Validate(inputs, outputs []Value) error {
	if t.Eps <= 0 {
		return fmt.Errorf("spec: invalid eps = %g", t.Eps)
	}
	if len(inputs) == 0 {
		if len(outputs) == 0 {
			return nil
		}
		return fmt.Errorf("spec: outputs without inputs")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range inputs {
		x, err := asFloat(v)
		if err != nil {
			return err
		}
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	outLo, outHi := math.Inf(1), math.Inf(-1)
	for _, v := range outputs {
		x, err := asFloat(v)
		if err != nil {
			return err
		}
		if x < lo || x > hi {
			return fmt.Errorf("spec: %s validity violated: output %g outside [%g, %g]", t.Name(), x, lo, hi)
		}
		outLo = math.Min(outLo, x)
		outHi = math.Max(outHi, x)
	}
	const slack = 1e-12 // tolerate floating-point rounding in midpoints
	if len(outputs) > 0 && outHi-outLo > t.Eps+slack {
		return fmt.Errorf("spec: %s agreement violated: output spread %g > eps %g", t.Name(), outHi-outLo, t.Eps)
	}
	return nil
}

// Trivial is the colorless task "output any input": it is solvable wait-free
// with one register and is used to exercise the simulation machinery
// positively (every output must merely be some process's input).
type Trivial struct{}

// Name implements Task.
func (Trivial) Name() string { return "trivial (any input)" }

// Validate implements Task.
func (Trivial) Validate(inputs, outputs []Value) error {
	for _, v := range outputs {
		if !slices.Contains(inputs, v) {
			return fmt.Errorf("spec: trivial task validity violated: output %v is not an input", v)
		}
	}
	return nil
}

func asFloat(v Value) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case float32:
		return float64(x), nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("spec: value %v (%T) is not numeric", v, v)
	}
}

// isLast reports whether vs[i] is the last value of its equality class in
// vs, so each class is counted once.
func isLast(vs []Value, i int) bool {
	return !slices.Contains(vs[i+1:], vs[i])
}

// distinctSorted returns one value per equality class of vs — the last one,
// which is the key a set built from vs would hold (-0 and 0 are one class)
// — in a deterministic (rendered) order, so violation messages are stable
// across runs.
func distinctSorted(vs []Value) []Value {
	var out []Value
	for i, v := range vs {
		if isLast(vs, i) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return fmt.Sprint(out[i]) < fmt.Sprint(out[j])
	})
	return out
}
