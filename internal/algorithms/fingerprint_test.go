package algorithms

import (
	"bytes"
	"math"
	"testing"

	"revisionist/internal/sched"
)

// encode returns the fingerprint stream of one encoder under the identity.
func encode(f func(fp *sched.FP, c *sched.Canon)) []byte {
	var fp sched.FP
	f(&fp, nil)
	return fp.Bytes()
}

// TestApproxFingerprintSignedZero pins the approximate-agreement encoders
// to the contract's float semantics: a state holding -0 (in the current
// value, a history entry or a published register) encodes as the same
// state holding +0, so the aa2/aan searches prune exactly as before.
func TestApproxFingerprintSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	aa2 := func(v float64, hist ...float64) *AA2 {
		return &AA2{id: 0, rounds: 2, r: 1 + len(hist), v: v, hist: hist, started: true}
	}
	aan := func(v float64) *AAN { return &AAN{id: 1, n: 3, rounds: 2, r: 2, v: v, started: true} }
	for _, c := range []struct {
		name string
		a, b func(fp *sched.FP, c *sched.Canon)
	}{
		{"AA2 value", aa2(0).AppendFingerprint, aa2(negZero).AppendFingerprint},
		{"AA2 history", aa2(0.5, 0, negZero).AppendFingerprint, aa2(0.5, negZero, 0).AppendFingerprint},
		{"AAN value", aan(0).AppendFingerprint, aan(negZero).AppendFingerprint},
		{"AANReg value", AANReg{R: 1, V: 0}.AppendValueFingerprint, AANReg{R: 1, V: negZero}.AppendValueFingerprint},
	} {
		if a, b := encode(c.a), encode(c.b); !bytes.Equal(a, b) {
			t.Errorf("%s: +0 encodes as %x, -0 as %x", c.name, a, b)
		}
	}
	if bytes.Equal(encode(aa2(0).AppendFingerprint), encode(aa2(0.25).AppendFingerprint)) {
		t.Error("AA2 states with different values encode the same")
	}
	if bytes.Equal(encode(AANReg{R: 1, V: 0}.AppendValueFingerprint), encode(AANReg{R: 2, V: 0}.AppendValueFingerprint)) {
		t.Error("AANReg values with different rounds encode the same")
	}
}
