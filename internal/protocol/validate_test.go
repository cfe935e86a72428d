package protocol

import (
	"errors"
	"strings"
	"testing"
)

// TestResolveStructuredErrors pins the hostile-input contract of Resolve: a
// bad parameter combination comes back as a *ValidationError whose field
// entries name the offending fields — the shape a service returns to a
// submitter — not as a bare string.
func TestResolveStructuredErrors(t *testing.T) {
	cases := []struct {
		protocol string
		params   Params
		fields   []string
	}{
		{"kset", Params{N: -1, K: 2}, []string{"n"}},           // negative n: generic schema check
		{"kset", Params{N: 4, K: -2}, []string{"k"}},           // negative k
		{"kset", Params{N: 4, K: 9}, []string{"k"}},            // k >= n: protocol check
		{"lane-kset", Params{N: 4, K: 2, X: 3}, []string{"x"}}, // x > k
		{"aa2", Params{N: 2, Eps: -0.5}, []string{"eps"}},      // negative eps
		{"aa2", Params{N: 3, Eps: 1.5}, []string{"n", "eps"}},  // both fields at once
		{"aan", Params{N: 2, Eps: 2}, []string{"eps"}},         // eps out of range
		{"firstvalue", Params{N: -3}, []string{"n"}},           // negative n, no custom Validate
	}
	for _, c := range cases {
		pr, err := Lookup(c.protocol)
		if err != nil {
			t.Fatal(err)
		}
		_, err = pr.Resolve(c.params)
		if err == nil {
			t.Errorf("%s: Resolve(%+v) accepted hostile params", c.protocol, c.params)
			continue
		}
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("%s: Resolve(%+v) returned unstructured error %v", c.protocol, c.params, err)
			continue
		}
		got := map[string]bool{}
		for _, f := range ve.Fields {
			got[f.Field] = true
		}
		for _, want := range c.fields {
			if !got[want] {
				t.Errorf("%s: Resolve(%+v) error %q misses field %q", c.protocol, c.params, err, want)
			}
		}
		if !strings.Contains(err.Error(), "protocol "+c.protocol) {
			t.Errorf("%s: error %q does not name the protocol", c.protocol, err)
		}
	}
}

// TestResolveZeroMeansDefault pins the boundary between "unset" and
// "hostile": a zero parameter takes the schema default (the repo-wide
// convention) and validates cleanly, while a negative one is rejected.
func TestResolveZeroMeansDefault(t *testing.T) {
	pr, err := Lookup("kset")
	if err != nil {
		t.Fatal(err)
	}
	p, err := pr.Resolve(Params{})
	if err != nil {
		t.Fatalf("zero params rejected: %v", err)
	}
	if p.N <= 0 || p.K <= 0 {
		t.Fatalf("defaults not applied: %+v", p)
	}
}

// TestFieldErrorRendering pins the per-field and aggregate renderings the
// client-side of the job API prints.
func TestFieldErrorRendering(t *testing.T) {
	var ve ValidationError
	ve.Add("n", -1, "need n >= 2")
	ve.Add("k", 0, "need 1 <= k < n (n=-1)")
	want := "n=-1: need n >= 2; k=0: need 1 <= k < n (n=-1)"
	if got := ve.Error(); got != want {
		t.Fatalf("rendering diverged:\nwant %q\ngot  %q", want, got)
	}
	if (&ValidationError{}).OrNil() != nil {
		t.Fatal("empty ValidationError is not nil")
	}
}
