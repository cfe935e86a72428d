package augsnap

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

func TestTimestampOrdering(t *testing.T) {
	cases := []struct {
		a, b Timestamp
		less bool
	}{
		{Timestamp{0, 0}, Timestamp{0, 1}, true},
		{Timestamp{1, 0}, Timestamp{0, 9}, false},
		{Timestamp{1, 2, 3}, Timestamp{1, 2, 3}, false},
		{Timestamp{1, 2, 3}, Timestamp{1, 3, 0}, true},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v < %v = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	if !(Timestamp{1, 2}).Equal(Timestamp{1, 2}) || (Timestamp{1, 2}).Equal(Timestamp{2, 1}) {
		t.Error("Equal broken")
	}
}

func TestTimestampTotalOrderProperty(t *testing.T) {
	prop := func(a, b [4]uint8) bool {
		ta := Timestamp{int(a[0]), int(a[1]), int(a[2]), int(a[3])}
		tb := Timestamp{int(b[0]), int(b[1]), int(b[2]), int(b[3])}
		// Exactly one of <, =, > holds.
		cnt := 0
		if ta.Less(tb) {
			cnt++
		}
		if tb.Less(ta) {
			cnt++
		}
		if ta.Equal(tb) {
			cnt++
		}
		return cnt == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSoloScanAndBlockUpdate(t *testing.T) {
	a := New(shmem.Free{}, 3, 4)
	view := a.Scan(0)
	for j, v := range view {
		if v != nil {
			t.Fatalf("initial view[%d] = %v", j, v)
		}
	}
	got, atomic := a.BlockUpdate(0, []int{1, 3}, []Value{"a", "b"})
	if !atomic {
		t.Fatal("solo Block-Update yielded")
	}
	// The returned view precedes the Block-Update's own updates.
	for j, v := range got {
		if v != nil {
			t.Fatalf("returned view[%d] = %v, want nil", j, v)
		}
	}
	view = a.Scan(1)
	want := []Value{nil, "a", nil, "b"}
	for j := range want {
		if view[j] != want[j] {
			t.Fatalf("view = %v, want %v", view, want)
		}
	}
}

func TestBlockUpdateReturnsEarlierView(t *testing.T) {
	a := New(shmem.Free{}, 2, 2)
	if _, atomic := a.BlockUpdate(0, []int{0}, []Value{"x"}); !atomic {
		t.Fatal("yield")
	}
	got, atomic := a.BlockUpdate(0, []int{0, 1}, []Value{"y", "z"})
	if !atomic {
		t.Fatal("yield")
	}
	if got[0] != "x" || got[1] != nil {
		t.Fatalf("returned view = %v, want [x nil]", got)
	}
}

func TestProcessZeroNeverYields(t *testing.T) {
	// Under every random schedule, every Block-Update by process 0 is atomic
	// (Theorem 20).
	for seed := int64(0); seed < 20; seed++ {
		runner := sched.NewSeqEngine(3, sched.NewRandom(seed), sched.WithMaxSteps(1<<20))
		a := New(runner, 3, 3)
		var zero []*BlockUpdateOp
		_, err := runner.RunMachines(sched.Processes(3, func(pid, i int) sched.Cursor {
			if i == 4 {
				return nil
			}
			op := a.StartBlockUpdate(pid, []int{i % 3}, []Value{fmt.Sprintf("p%d-%d", pid, i)})
			if pid == 0 {
				zero = append(zero, op)
			}
			return op
		}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, op := range zero {
			if _, atomic := op.Result(); !atomic {
				t.Fatalf("seed %d: process 0 yielded", seed)
			}
		}
	}
}

func TestLemma2StepCounts(t *testing.T) {
	runner := sched.NewSeqEngine(2, sched.RoundRobin{N: 2}, sched.WithMaxSteps(1<<20))
	a := New(runner, 2, 2)
	_, err := runner.RunMachines(sched.Processes(2, func(pid, i int) sched.Cursor {
		switch i {
		case 0:
			return a.StartBlockUpdate(pid, []int{pid}, []Value{pid})
		case 1:
			return a.StartScan(pid)
		}
		return nil
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, bu := range a.Log().BUs {
		want := 6
		if bu.Yielded {
			want = 5
		}
		got := 0
		for _, e := range a.Log().Events {
			hi := bu.ReadSeq
			if bu.Yielded {
				hi = bu.CheckSeq
			}
			if e.PID == bu.PID && e.Seq >= bu.HSeq && e.Seq <= hi {
				got++
			}
		}
		if got != want {
			t.Fatalf("Block-Update by %d took %d H-ops, want %d", bu.PID, got, want)
		}
	}
	for _, sr := range a.Log().Scans {
		if sr.HOps < 3 {
			t.Fatalf("scan by %d took %d H-ops, want >= 3", sr.PID, sr.HOps)
		}
	}
}

func TestScanSeesLatestTimestampPerComponent(t *testing.T) {
	a := New(shmem.Free{}, 3, 2)
	a.BlockUpdate(1, []int{0}, []Value{"old"})
	a.BlockUpdate(2, []int{0}, []Value{"new"})
	view := a.Scan(0)
	if view[0] != "new" {
		t.Fatalf("view[0] = %v, want new", view[0])
	}
}

func TestViewPrefersLexicographicallyLargerTimestamp(t *testing.T) {
	h := HView{
		{Triples: []Triple{{Comp: 0, Val: "a", TS: Timestamp{1, 0}}}},
		{Triples: []Triple{{Comp: 0, Val: "b", TS: Timestamp{0, 5}}}},
	}
	v := h.view(1)
	if v[0] != "a" {
		t.Fatalf("view = %v, want [a]", v)
	}
}

func TestPrefixRelations(t *testing.T) {
	mk := func(lens ...int) HView {
		h := make(HView, len(lens))
		for i, l := range lens {
			h[i].Triples = make([]Triple, l)
		}
		return h
	}
	if !mk(1, 2).prefix(mk(1, 3)) {
		t.Error("prefix expected")
	}
	if mk(2, 2).prefix(mk(1, 3)) {
		t.Error("prefix unexpected")
	}
	if !mk(1, 2).properPrefix(mk(1, 3)) {
		t.Error("proper prefix expected")
	}
	if mk(1, 3).properPrefix(mk(1, 3)) {
		t.Error("proper prefix of itself")
	}
	if !mk(1, 3).eq(mk(1, 3)) {
		t.Error("eq expected")
	}
	// Help records do not affect triple-based comparisons.
	a := mk(1, 1)
	a[0].Help = []HelpRec{{Dst: 1, Idx: 0}}
	if !a.eq(mk(1, 1)) {
		t.Error("help records must not affect equality")
	}
}

func TestYieldRequiresLowerIDContention(t *testing.T) {
	// Drive process 1's Block-Update to interleave with process 0's: pick a
	// schedule where p0 appends triples between p1's line-2 scan and line-8
	// check. p1 must yield.
	runner := sched.NewSeqEngine(2, sched.StrategyFunc(func(step int, enabled []int) int {
		// Let p1 do its first scan, then run p0 to completion, then p1.
		if step == 0 {
			for _, pid := range enabled {
				if pid == 1 {
					return pid
				}
			}
		}
		for _, pid := range enabled {
			if pid == 0 {
				return pid
			}
		}
		return enabled[0]
	}), sched.WithMaxSteps(1<<20))
	a := New(runner, 2, 2)
	bus := make([]*BlockUpdateOp, 2)
	_, err := runner.RunMachines(sched.Processes(2, func(pid, i int) sched.Cursor {
		if i > 0 {
			return nil
		}
		bus[pid] = a.StartBlockUpdate(pid, []int{pid}, []Value{pid})
		return bus[pid]
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, atomic := bus[1].Result(); atomic {
		t.Fatal("expected process 1 to yield under lower-id contention")
	}
}

func TestBlockUpdatePanicsOnBadArgs(t *testing.T) {
	a := New(shmem.Free{}, 2, 2)
	for _, args := range []struct {
		comps []int
		vals  []Value
	}{
		{nil, nil},
		{[]int{0}, []Value{"a", "b"}},
		{[]int{0, 0}, []Value{"a", "b"}},
		{[]int{5}, []Value{"a"}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BlockUpdate(%v, %v) did not panic", args.comps, args.vals)
				}
			}()
			a.BlockUpdate(0, args.comps, args.vals)
		}()
	}
}

// randomWorkload drives f processes through mixed Scans and Block-Updates
// under a seeded random schedule and returns the augmented snapshot.
func randomWorkload(t *testing.T, f, m, opsPer int, seed int64) *AugSnapshot {
	t.Helper()
	runner := sched.NewSeqEngine(f, sched.NewRandom(seed), sched.WithMaxSteps(1<<22))
	a := New(runner, f, m)
	runWorkload(t, runner, a, f, m, opsPer, seed)
	return a
}

// runWorkload drives f processes through mixed Scans and Block-Updates on
// a, under runner's schedule and operation choices seeded by seed.
func runWorkload(t *testing.T, runner *sched.SeqEngine, a *AugSnapshot, f, m, opsPer int, seed int64) {
	t.Helper()
	rngs := make([]*rand.Rand, f)
	for pid := range rngs {
		rngs[pid] = rand.New(rand.NewSource(seed*1000 + int64(pid)))
	}
	_, err := runner.RunMachines(sched.Processes(f, func(pid, i int) sched.Cursor {
		rng := rngs[pid]
		switch {
		case i == opsPer:
			return nil
		case rng.Intn(3) == 0:
			return a.StartScan(pid)
		}
		r := 1 + rng.Intn(m)
		comps := rng.Perm(m)[:r]
		vals := make([]Value, r)
		for g := range vals {
			vals[g] = fmt.Sprintf("p%d-i%d-g%d", pid, i, g)
		}
		return a.StartBlockUpdate(pid, comps, vals)
	}))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

func TestRandomWorkloadsProduceConsistentLogs(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a := randomWorkload(t, 3, 3, 6, seed)
		log := a.Log()
		if len(log.BUs) == 0 {
			t.Fatal("no Block-Updates recorded")
		}
		for _, bu := range log.BUs {
			if len(bu.TS) != 3 {
				t.Fatalf("timestamp %v has wrong arity", bu.TS)
			}
			if !bu.Yielded && bu.View == nil {
				t.Fatalf("atomic Block-Update without view")
			}
		}
	}
}

func TestTimestampsUnique(t *testing.T) {
	// Lemma 9: all Block-Updates carry distinct timestamps.
	for seed := int64(0); seed < 10; seed++ {
		a := randomWorkload(t, 3, 3, 6, seed)
		seen := map[string]bool{}
		for _, bu := range a.Log().BUs {
			key := fmt.Sprint(bu.TS)
			if seen[key] {
				t.Fatalf("duplicate timestamp %v", bu.TS)
			}
			seen[key] = true
		}
	}
}

func TestConcurrentScansDoNotBlockEachOther(t *testing.T) {
	// The §3.2 folding subtlety: Scans help by updating H, but scan-result
	// equality is defined over update triples only, so two concurrent Scans
	// must not force each other to retry. Under a fully interleaved schedule
	// both Scans must finish in exactly 3 H-operations (the k = 0 case of
	// Lemma 2).
	runner := sched.NewSeqEngine(2, sched.Alternator{Burst: 1}, sched.WithMaxSteps(1<<16))
	a := New(runner, 2, 2)
	_, err := runner.RunMachines(sched.Processes(2, func(pid, i int) sched.Cursor {
		if i > 0 {
			return nil
		}
		return a.StartScan(pid)
	}))
	if err != nil {
		t.Fatalf("concurrent scans did not finish: %v", err)
	}
	for _, sr := range a.Log().Scans {
		if sr.HOps != 3 {
			t.Fatalf("scan by %d took %d H-ops, want 3 (help records must not break equality)", sr.PID, sr.HOps)
		}
	}
}

func TestScanRetriesUnderConcurrentBlockUpdates(t *testing.T) {
	// A Scan interleaved with triple-appending Block-Updates retries, but
	// stays within the Lemma 2 bound and terminates once writers stop.
	runner := sched.NewSeqEngine(3, sched.Alternator{Burst: 2}, sched.WithMaxSteps(1<<18))
	a := New(runner, 3, 2)
	_, err := runner.RunMachines(sched.Processes(3, func(pid, i int) sched.Cursor {
		switch {
		case pid == 2 && i == 0:
			return a.StartScan(pid)
		case pid != 2 && i < 3:
			return a.StartBlockUpdate(pid, []int{pid % 2}, []Value{i})
		}
		return nil
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(a.Log().Scans) != 1 {
		t.Fatalf("scans = %d", len(a.Log().Scans))
	}
}

func TestBlockUpdateViewSpecSolo(t *testing.T) {
	// §3.1: an atomic Block-Update B returns a view from a point T between
	// the previous atomic Update Z' and B's own first Update Z. Running solo
	// the view must be exactly the contents just before B.
	a := New(shmem.Free{}, 2, 3)
	a.BlockUpdate(0, []int{0}, []Value{"a"})
	a.BlockUpdate(0, []int{1, 2}, []Value{"b", "c"})
	got, atomic := a.BlockUpdate(0, []int{0, 1, 2}, []Value{"x", "y", "z"})
	if !atomic {
		t.Fatal("solo Block-Update yielded")
	}
	want := []Value{"a", "b", "c"}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("view = %v, want %v", got, want)
		}
	}
}

// TestFingerprintStreamsAgree: along seeded workloads over the atomic and
// the register-built store, the augmented snapshot hashes the same at every
// decision under a nil Canon (the plain fingerprint) and under the
// identity-only group.
func TestFingerprintStreamsAgree(t *testing.T) {
	const f, m, ops = 2, 2, 3
	id, err := sched.NewCanonicalizer(sched.SymmetrySpec{N: f})
	if err != nil {
		t.Fatal(err)
	}
	var fp sched.FP
	for _, store := range []string{"atomic", "registers"} {
		for seed := int64(0); seed < 4; seed++ {
			var a *AugSnapshot
			random, decisions := sched.NewRandom(seed), 0
			runner := sched.NewSeqEngine(f, sched.StrategyFunc(func(step int, enabled []int) int {
				decisions++
				fp.Reset()
				a.AppendFingerprint(&fp, nil)
				plain := fp.Sum64()
				if c := id.Canonical(&fp, a.AppendFingerprint); c != plain {
					t.Fatalf("%s seed %d step %d: hashes %x under the identity Canon, %x under a nil one", store, seed, step, c, plain)
				}
				return random.Pick(step, enabled)
			}), sched.WithMaxSteps(1<<22))
			if store == "atomic" {
				a = New(runner, f, m)
			} else {
				a = NewOver(shmem.NewRegSWSnapshot("H", runner, f, HComp{}), f, m)
			}
			runWorkload(t, runner, a, f, m, ops, seed)
			if decisions < 10 {
				t.Fatalf("%s seed %d: %d decisions, want many", store, seed, decisions)
			}
		}
	}
}
