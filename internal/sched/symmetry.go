package sched

import "fmt"

// This file is the symmetry group of the fingerprint contract
// (fingerprint.go): configurations that differ only by a permutation of
// interchangeable processes — a process-permutation orbit — are reduced to
// one canonical fingerprint, so stateful exploration stores and prunes per
// orbit instead of per member (up to |class|! fewer states).
//
// The canonical fingerprint of a configuration is the minimum, over every
// element π of the declared symmetry group, of the configuration hash with
// the identity renaming π applied while encoding — the one encoder of each
// object (Fingerprinter) called with π's Canon: process states are hashed
// in π-permuted slot order, components owned by class members are
// co-permuted, embedded pids are rewritten to π(pid), and (when declared)
// input values are rewritten to their π-renamed input role. Because the set
// {hash under π : π in G} is the same for every member of one orbit, the
// minimum is orbit-invariant; and because each per-π byte stream encodes the
// renamed configuration injectively, two different orbits collide only by a
// 64-bit hash collision — the same (vanishingly unlikely) caveat plain
// fingerprint pruning already accepts. Exactness of the bounded search is
// therefore preserved: a violation is reported iff its orbit contains one.
//
// Soundness of collapsing an orbit requires the declared group to be an
// automorphism group of the checked system: class members must run the same
// program up to their own input and their owned components, and the check
// must be invariant under permuting class members' outputs (all tasks here
// validate output multisets) and — when input renaming is declared — under a
// bijective renaming of class members' input values (true for the discrete
// tasks, false for eps-approximate agreement). Declarations live in the
// protocol registry (protocol.Protocol.Symmetry); this package only provides
// the group mechanics.

// MaxSymmetryGroup caps the enumerated group size (8! — eight
// interchangeable processes). Beyond it NewCanonicalizer degenerates to the
// identity group (symmetry reduction becomes a no-op) rather than spending
// more time permuting than exploring; exhaustive search at such widths is
// out of reach regardless.
const MaxSymmetryGroup = 40320

// SymmetrySpec declares the symmetry group of an nprocs-process system.
type SymmetrySpec struct {
	// N is the number of processes.
	N int
	// Classes are disjoint sets of interchangeable pids: processes running
	// the same program up to their own input and owned components. The group
	// is the product of the symmetric groups on each class.
	Classes [][]int
	// Owned lists, per pid, the components that process owns (writes
	// exclusively, addressed by its identity); they are co-permuted with the
	// process slots. Nil or short slices mean "owns none"; class members must
	// own the same number of components.
	Owned [][]int
	// Roles maps input values to the pid they belong to, for classes whose
	// collapse additionally renames inputs (the task must be invariant under
	// bijective renaming of those values). Values must be comparable.
	Roles map[any]int
}

// Canon is one symmetry-group element π, in the forms value hashing needs:
// slot sources for reordering process states, component sources for owned
// components, the pid image for embedded identities, and the renamed role
// of declared input values. A nil *Canon is the identity: every accessor
// returns its argument and Role declares nothing.
type Canon struct {
	perm    []int // π: pid -> canonical slot
	slotSrc []int // π⁻¹: canonical slot -> pid
	compSrc []int // ρ⁻¹ over owned components; identity beyond its length
	compDst []int // ρ: component -> canonical position
	roles   map[any]int
}

// Pid returns π(pid), the canonical identity an embedded pid is hashed as.
func (c *Canon) Pid(pid int) int {
	if c == nil || pid < 0 || pid >= len(c.perm) {
		return pid
	}
	return c.perm[pid]
}

// SlotSrc returns the pid whose state is hashed at canonical slot s.
func (c *Canon) SlotSrc(s int) int {
	if c == nil || s < 0 || s >= len(c.slotSrc) {
		return s
	}
	return c.slotSrc[s]
}

// CompSrc returns the component hashed at canonical component position j
// (identity for components no class member owns).
func (c *Canon) CompSrc(j int) int {
	if c == nil || j < 0 || j >= len(c.compSrc) {
		return j
	}
	return c.compSrc[j]
}

// CompDst returns ρ(j), the canonical position an embedded component index
// is rewritten to (identity for components no class member owns).
func (c *Canon) CompDst(j int) int {
	if c == nil || j < 0 || j >= len(c.compDst) {
		return j
	}
	return c.compDst[j]
}

// Role returns the π-renamed input role of v, if v is a declared input
// value: the hash writes the role token instead of the raw value, so orbit
// members that wrote different class inputs still hash identically. v must
// be hashable (a map key); callers ask only for scalars.
func (c *Canon) Role(v any) (int, bool) {
	if c == nil || c.roles == nil {
		return 0, false
	}
	j, ok := c.roles[v]
	if !ok {
		return 0, false
	}
	return c.perm[j], true
}

// Canonicalizer enumerates a symmetry group once and computes canonical
// fingerprints by minimizing the configuration hash over it. It is
// read-only after construction and safe to share across systems and
// goroutines.
type Canonicalizer struct {
	spec   SymmetrySpec
	elems  []*Canon // the full group; elems[0] is the identity
	capped bool
}

// NewCanonicalizer validates spec and enumerates its group. Structural
// errors (out-of-range or overlapping class pids, mismatched owned-component
// counts) are returned; a group larger than MaxSymmetryGroup is not an
// error — the canonicalizer degenerates to the identity group (Capped
// reports it) and symmetry reduction becomes a no-op.
func NewCanonicalizer(spec SymmetrySpec) (*Canonicalizer, error) {
	if spec.N < 1 {
		return nil, fmt.Errorf("sched: symmetry over %d processes", spec.N)
	}
	seen := make([]bool, spec.N)
	ownedOf := func(pid int) []int {
		if pid < len(spec.Owned) {
			return spec.Owned[pid]
		}
		return nil
	}
	size := 1
	for _, cl := range spec.Classes {
		for _, pid := range cl {
			if pid < 0 || pid >= spec.N {
				return nil, fmt.Errorf("sched: symmetry class pid %d out of range [0, %d)", pid, spec.N)
			}
			if seen[pid] {
				return nil, fmt.Errorf("sched: pid %d in two symmetry classes", pid)
			}
			seen[pid] = true
			if len(ownedOf(pid)) != len(ownedOf(cl[0])) {
				return nil, fmt.Errorf("sched: symmetry class %v: pid %d owns %d components, pid %d owns %d (must match)",
					cl, pid, len(ownedOf(pid)), cl[0], len(ownedOf(cl[0])))
			}
		}
		if size <= MaxSymmetryGroup {
			size *= factorial(len(cl))
		}
	}
	cz := &Canonicalizer{spec: spec}
	if size > MaxSymmetryGroup {
		cz.capped = true
		cz.elems = []*Canon{cz.newCanon(identityPerm(spec.N))}
		return cz, nil
	}
	perms := [][]int{identityPerm(spec.N)}
	for _, cl := range spec.Classes {
		if len(cl) < 2 {
			continue
		}
		var next [][]int
		forEachPermutation(len(cl), func(p []int) {
			for _, base := range perms {
				perm := append([]int(nil), base...)
				for i, pid := range cl {
					perm[pid] = cl[p[i]]
				}
				next = append(next, perm)
			}
		})
		perms = next
	}
	cz.elems = make([]*Canon, len(perms))
	for i, p := range perms {
		cz.elems[i] = cz.newCanon(p)
	}
	return cz, nil
}

// newCanon derives the lookup tables of one group element from π.
func (cz *Canonicalizer) newCanon(perm []int) *Canon {
	c := &Canon{perm: perm, slotSrc: make([]int, len(perm)), roles: cz.spec.Roles}
	maxComp := -1
	for pid, own := range cz.spec.Owned {
		if pid < len(perm) {
			for _, j := range own {
				maxComp = max(maxComp, j)
			}
		}
	}
	if maxComp >= 0 {
		c.compSrc = identityPerm(maxComp + 1)
		c.compDst = identityPerm(maxComp + 1)
	}
	for pid, s := range perm {
		c.slotSrc[s] = pid
		// Component own[pid][g] moves to position own[π(pid)][g]: the state of
		// pid lands in slot π(pid), and with it its owned components.
		if pid < len(cz.spec.Owned) {
			src, dst := cz.spec.Owned[pid], cz.spec.Owned[s]
			for g := range src {
				c.compSrc[dst[g]] = src[g]
				c.compDst[src[g]] = dst[g]
			}
		}
	}
	return c
}

// Trivial reports whether the group is the identity alone — canonical and
// plain fingerprints then pick out exactly the same states (though not the
// same hash values when Roles are declared).
func (cz *Canonicalizer) Trivial() bool { return len(cz.elems) == 1 && cz.spec.Roles == nil }

// Size returns the enumerated group size.
func (cz *Canonicalizer) Size() int { return len(cz.elems) }

// Capped reports that the declared group exceeded MaxSymmetryGroup and was
// degenerated to the identity.
func (cz *Canonicalizer) Capped() bool { return cz.capped }

// Canonical computes the canonical fingerprint: appendCfg must append the
// full configuration under the given Canon (slots, components, pids and
// roles rewritten); the minimum hash over the group is returned. fp is
// scratch space, reset and hashed once per element.
func (cz *Canonicalizer) Canonical(fp *FP, appendCfg func(fp *FP, c *Canon)) uint64 {
	best := ^uint64(0)
	for _, c := range cz.elems {
		fp.Reset()
		appendCfg(fp, c)
		if v := fp.Sum64(); v < best {
			best = v
		}
	}
	return best
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// factorial returns n!, or any value above MaxSymmetryGroup once n! exceeds
// it: callers only compare group sizes against the cap, and n! overflows
// int from n = 21.
func factorial(n int) int {
	f := 1
	for i := 2; i <= n && f <= MaxSymmetryGroup; i++ {
		f *= i
	}
	return f
}

// forEachPermutation calls fn with every permutation of [0, n) (Heap's
// algorithm; fn must not retain the slice).
func forEachPermutation(n int, fn func(p []int)) {
	p := identityPerm(n)
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			fn(p)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
	}
	rec(n)
}
