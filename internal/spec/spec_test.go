package spec

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConsensusValid(t *testing.T) {
	cases := []struct {
		name    string
		inputs  []Value
		outputs []Value
		wantErr string
	}{
		{"agree", []Value{1, 2, 3}, []Value{2, 2, 2}, ""},
		{"subset outputs", []Value{1, 2}, []Value{1}, ""},
		{"no outputs", []Value{1, 2}, nil, ""},
		{"disagree", []Value{1, 2}, []Value{1, 2}, "agreement"},
		{"invalid", []Value{1, 2}, []Value{3}, "validity"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Consensus{}.Validate(c.inputs, c.outputs)
			checkErr(t, err, c.wantErr)
		})
	}
}

func TestKSetAgreement(t *testing.T) {
	cases := []struct {
		name    string
		k       int
		inputs  []Value
		outputs []Value
		wantErr string
	}{
		{"two of three ok", 2, []Value{1, 2, 3}, []Value{1, 3, 3}, ""},
		{"three of two bad", 2, []Value{1, 2, 3}, []Value{1, 2, 3}, "agreement"},
		{"exactly k", 3, []Value{1, 2, 3, 4}, []Value{1, 2, 3}, ""},
		{"not an input", 2, []Value{1, 2}, []Value{9}, "validity"},
		{"k zero", 0, []Value{1}, []Value{1}, "invalid k"},
		{"duplicates count once", 2, []Value{1, 2}, []Value{1, 1, 2, 2}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := KSetAgreement{K: c.k}.Validate(c.inputs, c.outputs)
			checkErr(t, err, c.wantErr)
		})
	}
}

func TestApproxAgreement(t *testing.T) {
	cases := []struct {
		name    string
		eps     float64
		inputs  []Value
		outputs []Value
		wantErr string
	}{
		{"within eps", 0.5, []Value{0.0, 1.0}, []Value{0.5, 0.75}, ""},
		{"spread too wide", 0.5, []Value{0.0, 1.0}, []Value{0.0, 1.0}, "agreement"},
		{"outside range", 0.5, []Value{0.2, 0.4}, []Value{0.5}, "validity"},
		{"single output", 0.1, []Value{0.0, 1.0}, []Value{0.3}, ""},
		{"int inputs accepted", 1.0, []Value{0, 1}, []Value{0.5, 1.0}, ""},
		{"bad eps", -1, []Value{0.0}, []Value{0.0}, "invalid eps"},
		{"non numeric", 0.5, []Value{"x"}, []Value{"x"}, "not numeric"},
		{"no inputs no outputs", 0.5, nil, nil, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ApproxAgreement{Eps: c.eps}.Validate(c.inputs, c.outputs)
			checkErr(t, err, c.wantErr)
		})
	}
}

func TestTrivialTask(t *testing.T) {
	if err := (Trivial{}).Validate([]Value{1, 2}, []Value{2, 1, 2}); err != nil {
		t.Fatalf("valid outputs rejected: %v", err)
	}
	if err := (Trivial{}).Validate([]Value{1, 2}, []Value{3}); err == nil {
		t.Fatal("non-input output accepted")
	}
}

func TestNames(t *testing.T) {
	if got := (Consensus{}).Name(); got != "consensus" {
		t.Errorf("Consensus name = %q", got)
	}
	if got := (KSetAgreement{K: 3}).Name(); got != "3-set agreement" {
		t.Errorf("KSet name = %q", got)
	}
	if !strings.Contains((ApproxAgreement{Eps: 0.25}).Name(), "0.25") {
		t.Errorf("AA name = %q", (ApproxAgreement{Eps: 0.25}).Name())
	}
}

// Property: colorless closure under output subsets — if an output set is
// valid, so is every subset of it.
func TestKSetSubsetClosureProperty(t *testing.T) {
	prop := func(ins []int, mask uint8, k uint8) bool {
		if len(ins) == 0 {
			return true
		}
		kk := int(k%3) + 1
		inputs := make([]Value, len(ins))
		for i, v := range ins {
			inputs[i] = v % 4
		}
		// Build a valid output multiset: pick at most kk distinct inputs.
		distinct := map[Value]bool{}
		var outputs []Value
		for _, v := range inputs {
			if len(distinct) < kk || distinct[v] {
				distinct[v] = true
				outputs = append(outputs, v)
			}
		}
		task := KSetAgreement{K: kk}
		if task.Validate(inputs, outputs) != nil {
			return false
		}
		// Any subset must stay valid.
		var sub []Value
		for i, v := range outputs {
			if i < 8 && mask&(1<<i) != 0 {
				sub = append(sub, v)
			}
		}
		return task.Validate(inputs, sub) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: consensus == 1-set agreement.
func TestConsensusEquivalenceProperty(t *testing.T) {
	prop := func(ins []int, outIdx []uint8) bool {
		if len(ins) == 0 {
			return true
		}
		inputs := make([]Value, len(ins))
		for i, v := range ins {
			inputs[i] = v
		}
		var outputs []Value
		for _, oi := range outIdx {
			outputs = append(outputs, inputs[int(oi)%len(inputs)])
		}
		e1 := Consensus{}.Validate(inputs, outputs)
		e2 := KSetAgreement{K: 1}.Validate(inputs, outputs)
		return (e1 == nil) == (e2 == nil)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func checkErr(t *testing.T, err error, want string) {
	t.Helper()
	if want == "" {
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if err == nil {
		t.Fatalf("expected error containing %q, got nil", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

// TestKSetAgreementMessages pins the exact validity and agreement messages:
// the violation reports of modelcheck, checkd and the experiment goldens
// quote them, so they must not change with the implementation. The
// agreement list is sorted by rendering and holds one value per equality
// class, the last one output (so -0 and 0 render as the later of the two).
func TestKSetAgreementMessages(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name    string
		k       int
		inputs  []Value
		outputs []Value
		want    string
	}{
		{"first non-input reported", 1, []Value{1, 2}, []Value{1, 7, 9},
			"spec: 1-set agreement validity violated: output 7 is not an input"},
		{"validity before agreement", 1, []Value{1, 2}, []Value{1, 2, 3},
			"spec: 1-set agreement validity violated: output 3 is not an input"},
		{"string non-input", 2, []Value{"a", "b"}, []Value{"c"},
			"spec: 2-set agreement validity violated: output c is not an input"},
		{"types differ", 1, []Value{1}, []Value{int64(1)},
			"spec: 1-set agreement validity violated: output 1 is not an input"},
		{"consensus disagreement", 1, []Value{3, 1, 2}, []Value{2, 1, 2},
			"spec: 1-set agreement agreement violated: 2 distinct outputs [1 2]"},
		{"sorted by rendering", 2, []Value{10, 9, 2}, []Value{10, 9, 2, 9},
			"spec: 2-set agreement agreement violated: 3 distinct outputs [10 2 9]"},
		{"mixed types", 2, []Value{1, "1", "a"}, []Value{"a", 1, "1"},
			"spec: 2-set agreement agreement violated: 3 distinct outputs [1 1 a]"},
		{"nil value", 1, []Value{nil, 1}, []Value{nil, 1},
			"spec: 1-set agreement agreement violated: 2 distinct outputs [1 <nil>]"},
		{"signed zeros are one value", 1, []Value{0.0, 1.5}, []Value{0.0, negZero, 1.5},
			"spec: 1-set agreement agreement violated: 2 distinct outputs [-0 1.5]"},
		{"zero after negative zero", 1, []Value{0.0, 1.5}, []Value{negZero, 1.5, 0.0},
			"spec: 1-set agreement agreement violated: 2 distinct outputs [0 1.5]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := KSetAgreement{K: c.k}.Validate(c.inputs, c.outputs)
			if err == nil || err.Error() != c.want {
				t.Fatalf("Validate = %v, want %q", err, c.want)
			}
		})
	}
}

// TestKSetAgreementValidateAllocs pins that a passing check allocates
// nothing: the exhaustive search validates every schedule it runs.
func TestKSetAgreementValidateAllocs(t *testing.T) {
	inputs := []Value{"a", "b", "c", 7, 2.5}
	outputs := []Value{"c", 7, "c", 2.5, 7}
	task := KSetAgreement{K: 3}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := task.Validate(inputs, outputs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate allocated %.1f times per passing call, want 0", allocs)
	}
}
