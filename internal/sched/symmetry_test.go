package sched

import (
	"testing"
)

func TestCanonicalizerGroupSize(t *testing.T) {
	cases := []struct {
		name string
		spec SymmetrySpec
		size int
	}{
		{"identity", SymmetrySpec{N: 3}, 1},
		{"singleton class", SymmetrySpec{N: 3, Classes: [][]int{{1}}}, 1},
		{"pair", SymmetrySpec{N: 3, Classes: [][]int{{0, 2}}}, 2},
		{"full S3", SymmetrySpec{N: 3, Classes: [][]int{{0, 1, 2}}}, 6},
		{"product S2xS2", SymmetrySpec{N: 4, Classes: [][]int{{0, 1}, {2, 3}}}, 4},
		{"full S8", SymmetrySpec{N: 8, Classes: [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}}, 40320},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cz, err := NewCanonicalizer(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if cz.Size() != c.size {
				t.Errorf("group size %d, want %d", cz.Size(), c.size)
			}
			if cz.Capped() {
				t.Error("unexpectedly capped")
			}
			// Group elements must be pairwise-distinct permutations, and the
			// identity must be among them.
			seen := map[string]bool{}
			id := false
			for _, e := range cz.elems {
				key := ""
				isID := true
				for pid := 0; pid < c.spec.N; pid++ {
					key += string(rune('a' + e.Pid(pid)))
					if e.Pid(pid) != pid {
						isID = false
					}
				}
				if seen[key] {
					t.Errorf("duplicate group element %s", key)
				}
				seen[key] = true
				id = id || isID
			}
			if !id {
				t.Error("identity element missing from group")
			}
		})
	}
}

func TestCanonicalizerCapsOversizedGroups(t *testing.T) {
	// 9! > MaxSymmetryGroup; 21! and 66! overflow int (to a negative value
	// and to zero), which must still cap rather than enumerate the group.
	for _, n := range []int{9, 21, 66, 2000} {
		cl := make([]int, n)
		for i := range cl {
			cl[i] = i
		}
		cz, err := NewCanonicalizer(SymmetrySpec{N: n, Classes: [][]int{cl}})
		if err != nil {
			t.Fatal(err)
		}
		if !cz.Capped() || cz.Size() != 1 {
			t.Fatalf("n=%d: capped=%v size=%d, want degenerate identity group", n, cz.Capped(), cz.Size())
		}
		if !cz.Trivial() {
			t.Errorf("n=%d: capped role-free group should be Trivial", n)
		}
	}
}

func TestCanonicalizerRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec SymmetrySpec
	}{
		{"zero processes", SymmetrySpec{N: 0}},
		{"pid out of range", SymmetrySpec{N: 2, Classes: [][]int{{0, 2}}}},
		{"negative pid", SymmetrySpec{N: 2, Classes: [][]int{{-1, 0}}}},
		{"overlapping classes", SymmetrySpec{N: 3, Classes: [][]int{{0, 1}, {1, 2}}}},
		{"pid twice in one class", SymmetrySpec{N: 3, Classes: [][]int{{1, 1}}}},
		{"owned count mismatch", SymmetrySpec{
			N: 2, Classes: [][]int{{0, 1}}, Owned: [][]int{{0}, {}},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewCanonicalizer(c.spec); err == nil {
				t.Errorf("NewCanonicalizer(%+v) accepted a malformed spec", c.spec)
			}
		})
	}
}

// TestCanonMaps pins the lookup-table semantics on a concrete non-identity
// element: with pids {0,1} swapped and pid i owning component i, the swap
// must carry the owned components along (rule: own[pid][g] hashes at position
// own[π(pid)][g]).
func TestCanonMaps(t *testing.T) {
	cz, err := NewCanonicalizer(SymmetrySpec{
		N:       3,
		Classes: [][]int{{0, 1}},
		Owned:   [][]int{{0}, {1}, {2}},
		Roles:   map[any]int{"in0": 0, "in1": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var swap *Canon
	for _, e := range cz.elems {
		if e.Pid(0) == 1 {
			swap = e
		}
	}
	if swap == nil {
		t.Fatal("swap element missing")
	}
	if swap.Pid(1) != 0 || swap.Pid(2) != 2 {
		t.Errorf("Pid: got %d %d, want 0 2", swap.Pid(1), swap.Pid(2))
	}
	// slotSrc is the inverse: canonical slot 0 holds pid 1's state.
	if swap.SlotSrc(0) != 1 || swap.SlotSrc(1) != 0 || swap.SlotSrc(2) != 2 {
		t.Errorf("SlotSrc: got %d %d %d, want 1 0 2", swap.SlotSrc(0), swap.SlotSrc(1), swap.SlotSrc(2))
	}
	// Pid 0 owns comp 0 and lands in slot 1, which owns comp 1: position 1
	// sources comp 0, and an embedded index 0 is rewritten to 1.
	if swap.CompSrc(1) != 0 || swap.CompDst(0) != 1 {
		t.Errorf("comp maps: CompSrc(1)=%d CompDst(0)=%d, want 0 1", swap.CompSrc(1), swap.CompDst(0))
	}
	if swap.CompSrc(2) != 2 || swap.CompDst(2) != 2 {
		t.Error("unowned component 2 must map to itself")
	}
	// Roles rename through π: pid 0's input now plays role π(0)=1.
	if r, ok := swap.Role("in0"); !ok || r != 1 {
		t.Errorf("Role(in0) = %d,%v, want 1,true", r, ok)
	}
	if _, ok := swap.Role("other"); ok {
		t.Error("undeclared value must not resolve to a role")
	}
	// Out-of-range and nil receivers degrade to the identity, never panic.
	if swap.Pid(-1) != -1 || swap.Pid(99) != 99 || swap.CompSrc(99) != 99 {
		t.Error("out-of-range lookups must be identity")
	}
	var nilCanon *Canon
	if nilCanon.Pid(1) != 1 || nilCanon.SlotSrc(2) != 2 {
		t.Error("nil Canon must be the identity")
	}
	if _, ok := nilCanon.Role("x"); ok {
		t.Error("nil Canon must have no roles")
	}
}

// TestCanonicalMinimizesOverOrbit is the algebraic heart: hashing a
// configuration vector through Canonical must give the same value for every
// permutation of the class members' entries, and a different value for a
// vector outside the orbit.
func TestCanonicalMinimizesOverOrbit(t *testing.T) {
	cz, err := NewCanonicalizer(SymmetrySpec{N: 3, Classes: [][]int{{0, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	var buf FP
	fp := func(cfg []byte) uint64 {
		return cz.Canonical(&buf, func(fp *FP, c *Canon) {
			for s := 0; s < len(cfg); s++ {
				fp.Byte(cfg[c.SlotSrc(s)])
			}
		})
	}
	orbit := [][]byte{{7, 7, 9}, {7, 9, 7}, {9, 7, 7}}
	want := fp(orbit[0])
	for _, cfg := range orbit[1:] {
		if got := fp(cfg); got != want {
			t.Errorf("fp(%v) = %#x, want %#x (orbit must collapse)", cfg, got, want)
		}
	}
	if got := fp([]byte{9, 9, 7}); got == want {
		t.Error("configuration outside the orbit collapsed onto it")
	}
}
