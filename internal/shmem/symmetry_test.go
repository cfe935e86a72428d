package shmem

import (
	"testing"

	"revisionist/internal/sched"
)

// canonFp computes the canonical fingerprint of one object under cz.
func canonFp(cz *sched.Canonicalizer, append func(fp *sched.FP, c *sched.Canon)) uint64 {
	var fp sched.FP
	return cz.Canonical(&fp, append)
}

func swapPair(t *testing.T, owned [][]int, roles map[any]int) *sched.Canonicalizer {
	t.Helper()
	cz, err := sched.NewCanonicalizer(sched.SymmetrySpec{
		N: 2, Classes: [][]int{{0, 1}}, Owned: owned, Roles: roles,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cz
}

// TestCanonicalCollapsesAfekSWOrbit: two register-built single-writer
// snapshots whose histories are mirror images under the pid swap must get one
// canonical fingerprint — including the pid-indexed View vectors embedded in
// the swRec register contents, which a slot-only permutation would miss.
func TestCanonicalCollapsesAfekSWOrbit(t *testing.T) {
	cz := swapPair(t, nil, nil)
	a := NewRegSWSnapshot("H", Free{}, 2, nil)
	a.Update(0, "x")
	a.Update(1, "y") // pid 1's embedded View saw pid 0's "x"
	b := NewRegSWSnapshot("H", Free{}, 2, nil)
	b.Update(1, "x")
	b.Update(0, "y") // mirror: pid 0's embedded View saw pid 1's "x"
	if canonFp(cz, a.AppendFingerprint) != canonFp(cz, b.AppendFingerprint) {
		t.Fatal("pid-swapped Afek SW snapshots did not collapse to one canonical fingerprint")
	}
	// Negative: a history that is NOT a permutation image (both values by one
	// process's register) must stay distinct.
	d := NewRegSWSnapshot("H", Free{}, 2, nil)
	d.Update(0, "x")
	d.Update(0, "y")
	if canonFp(cz, a.AppendFingerprint) == canonFp(cz, d.AppendFingerprint) {
		t.Fatal("distinct orbits collapsed")
	}
}

// TestCanonicalCollapsesAfekMWOrbit: the multi-writer construction embeds raw
// writer pids (mwRec.Writer) and component-indexed View vectors; with pid i
// owning component i, the swap must co-permute components and rewrite Writer.
func TestCanonicalCollapsesAfekMWOrbit(t *testing.T) {
	cz := swapPair(t, [][]int{{0}, {1}}, nil)
	a := NewRegMWSnapshot("M", Free{}, 2, 2, nil)
	a.Update(0, 0, "x")
	b := NewRegMWSnapshot("M", Free{}, 2, 2, nil)
	b.Update(1, 1, "x")
	if canonFp(cz, a.AppendFingerprint) != canonFp(cz, b.AppendFingerprint) {
		t.Fatal("pid-swapped Afek MW snapshots did not collapse to one canonical fingerprint")
	}
	// Negative: pid 0 writing the OTHER process's component swaps to "pid 1
	// writing component 0" — a different orbit than b's.
	d := NewRegMWSnapshot("M", Free{}, 2, 2, nil)
	d.Update(0, 1, "x")
	if canonFp(cz, b.AppendFingerprint) == canonFp(cz, d.AppendFingerprint) {
		t.Fatal("distinct orbits collapsed")
	}
	// The initial Writer = -1 sentinel must pass through the pid rewrite
	// untouched: two untouched snapshots hash equal under every element.
	e := NewRegMWSnapshot("M", Free{}, 2, 2, nil)
	f := NewRegMWSnapshot("M", Free{}, 2, 2, nil)
	if canonFp(cz, e.AppendFingerprint) != canonFp(cz, f.AppendFingerprint) {
		t.Fatal("initial snapshots disagree")
	}
}

// TestCanonicalRenamesInputRoles: with declared input roles, configurations
// where interchangeable processes wrote *their own* (distinct) inputs are one
// orbit; configurations that actually differ — the same process holding the
// other's input — are not.
func TestCanonicalRenamesInputRoles(t *testing.T) {
	cz := swapPair(t, nil, map[any]int{"in0": 0, "in1": 1})
	a := NewSWSnapshot("H", Free{}, 2, nil)
	a.Update(0, "in0")
	b := NewSWSnapshot("H", Free{}, 2, nil)
	b.Update(1, "in1")
	if canonFp(cz, a.AppendFingerprint) != canonFp(cz, b.AppendFingerprint) {
		t.Fatal("own-input writes did not collapse under role renaming")
	}
	// pid 0 writing in1 is in orbit with pid 1 writing in0 — but not with a.
	d := NewSWSnapshot("H", Free{}, 2, nil)
	d.Update(0, "in1")
	if canonFp(cz, a.AppendFingerprint) == canonFp(cz, d.AppendFingerprint) {
		t.Fatal("cross-input configuration collapsed onto the own-input orbit")
	}
	e := NewSWSnapshot("H", Free{}, 2, nil)
	e.Update(1, "in0")
	if canonFp(cz, d.AppendFingerprint) != canonFp(cz, e.AppendFingerprint) {
		t.Fatal("mirrored cross-input writes did not collapse")
	}
	// Undeclared values fall back to the plain encoding: permuted copies still
	// collapse (slot reordering alone suffices), no soundness loss.
	u := NewSWSnapshot("H", Free{}, 2, nil)
	u.Update(0, "stray")
	v := NewSWSnapshot("H", Free{}, 2, nil)
	v.Update(1, "stray")
	if canonFp(cz, u.AppendFingerprint) != canonFp(cz, v.AppendFingerprint) {
		t.Fatal("undeclared-value writes did not collapse under slot reordering")
	}
	// The register-built snapshot stores unhashable records (their embedded
	// views are slices): only the scalars inside them are looked up as roles.
	ra := NewRegSWSnapshot("H", Free{}, 2, nil)
	ra.Update(0, "in0")
	rb := NewRegSWSnapshot("H", Free{}, 2, nil)
	rb.Update(1, "in1")
	if canonFp(cz, ra.AppendFingerprint) != canonFp(cz, rb.AppendFingerprint) {
		t.Fatal("own-input writes to a register-built snapshot did not collapse under role renaming")
	}
	rd := NewRegSWSnapshot("H", Free{}, 2, nil)
	rd.Update(0, "in1")
	if canonFp(cz, ra.AppendFingerprint) == canonFp(cz, rd.AppendFingerprint) {
		t.Fatal("cross-input register-built configuration collapsed onto the own-input orbit")
	}
}

// TestCanonicalIdentityMatchesPlain: under the identity-only group with no
// roles, every base object's canonical fingerprint must equal its plain one
// (under a nil Canon) — symmetry reduction on an asymmetric protocol is a
// strict no-op.
func TestCanonicalIdentityMatchesPlain(t *testing.T) {
	cz, err := sched.NewCanonicalizer(sched.SymmetrySpec{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !cz.Trivial() {
		t.Fatal("identity group should be Trivial")
	}
	reg := NewRegister("R", Free{}, nil)
	reg.Write(0, []Value{"x", 1})
	sw := NewSWSnapshot("S", Free{}, 2, nil)
	sw.Update(1, "y")
	mw := NewMWSnapshot("M", Free{}, 3, nil)
	mw.Update(0, 2, 7)
	mx := NewMaxSnapshot("X", Free{}, 2, func(a, b Value) bool { return a.(int) < b.(int) })
	mx.Update(0, 1, 3)
	fi := NewFetchInc("F", Free{})
	fi.FetchIncrement(0)
	rsw := NewRegSWSnapshot("H", Free{}, 2, nil)
	rsw.Update(0, "x")
	rsw.Update(1, "y")
	rmw := NewRegMWSnapshot("M", Free{}, 2, 2, nil)
	rmw.Update(0, 1, "x")
	for _, o := range []sched.Fingerprinter{reg, sw, mw, mx, fi, rsw, rmw} {
		if canonFp(cz, o.AppendFingerprint) != fpOf(o.AppendFingerprint) {
			t.Errorf("%T: identity-group canonical fingerprint differs from the plain (nil-Canon) fingerprint", o)
		}
	}
}
