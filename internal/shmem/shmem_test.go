package shmem

import (
	"fmt"
	"testing"

	"revisionist/internal/sched"
)

func TestRegisterReadWrite(t *testing.T) {
	r := NewRegister("R", Free{}, nil)
	if v := r.Read(0); v != nil {
		t.Fatalf("initial read = %v, want nil", v)
	}
	r.Write(0, 42)
	if v := r.Read(1); v != 42 {
		t.Fatalf("read = %v, want 42", v)
	}
}

func TestMWSnapshotBasics(t *testing.T) {
	s := NewMWSnapshot("M", Free{}, 3, nil)
	if s.Components() != 3 {
		t.Fatalf("components = %d", s.Components())
	}
	s.Update(0, 1, "a")
	s.Update(1, 2, "b")
	view := s.Scan(2)
	want := []Value{nil, "a", "b"}
	for i := range want {
		if view[i] != want[i] {
			t.Fatalf("view[%d] = %v, want %v", i, view[i], want[i])
		}
	}
	// Returned views are copies.
	view[0] = "x"
	if got := s.Scan(0)[0]; got != nil {
		t.Fatalf("scan result aliased internal state: %v", got)
	}
	u, sc := s.OpCounts()
	if u != 2 || sc != 2 {
		t.Fatalf("op counts = (%d, %d), want (2, 2)", u, sc)
	}
}

func TestSWSnapshotOwnComponentOnly(t *testing.T) {
	s := NewSWSnapshot("H", Free{}, 2, nil)
	s.Update(0, "p0")
	s.Update(1, "p1")
	view := s.Scan(0)
	if view[0] != "p0" || view[1] != "p1" {
		t.Fatalf("view = %v", view)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range pid update should panic")
		}
	}()
	s.Update(5, "oops")
}

func TestMWSnapshotOutOfRangePanics(t *testing.T) {
	s := NewMWSnapshot("M", Free{}, 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range component update should panic")
		}
	}()
	s.Update(0, 7, "x")
}

type recording struct {
	events []string
}

func (r *recording) RecordUpdate(pid, comp int, v Value) {
	r.events = append(r.events, fmt.Sprintf("u%d:%d=%v", pid, comp, v))
}
func (r *recording) RecordScan(pid int, view []Value) {
	r.events = append(r.events, fmt.Sprintf("s%d", pid))
}

func TestRecorderSeesLinearizedOrder(t *testing.T) {
	rec := &recording{}
	s := NewMWSnapshot("M", Free{}, 2, nil)
	s.SetRecorder(rec)
	s.Update(0, 0, 1)
	s.Scan(1)
	s.Update(1, 1, 2)
	want := []string{"u0:0=1", "s1", "u1:1=2"}
	if len(rec.events) != len(want) {
		t.Fatalf("events = %v", rec.events)
	}
	for i := range want {
		if rec.events[i] != want[i] {
			t.Fatalf("events[%d] = %q, want %q", i, rec.events[i], want[i])
		}
	}
}

// tag is a per-writer sequence value written by stress writers.
type tag struct {
	PID, Seq int
}

// seqVector converts a view of tags into a per-writer sequence vector; the
// initial value nil maps to 0.
func seqVector(view []Value, nwriters int) []int {
	out := make([]int, nwriters)
	for _, v := range view {
		if v == nil {
			continue
		}
		tg := v.(tag)
		if tg.Seq > out[tg.PID] {
			out[tg.PID] = tg.Seq
		}
	}
	return out
}

// comparable reports whether a <= b or b <= a componentwise.
func comparableVecs(a, b []int) bool {
	le, ge := true, true
	for i := range a {
		if a[i] > b[i] {
			le = false
		}
		if a[i] < b[i] {
			ge = false
		}
	}
	return le || ge
}

// snapshotUnderTest abstracts the register-built snapshots as single-writer
// snapshots, through their cursors.
type snapshotUnderTest interface {
	StartUpdate(pid int, v Value) *SnapOp
	StartScan(pid int) *SnapOp
}

type mwAdapter struct{ s *RegMWSnapshot }

func (a mwAdapter) StartUpdate(pid int, v Value) *SnapOp { return a.s.StartUpdate(pid, pid, v) }
func (a mwAdapter) StartScan(pid int) *SnapOp            { return a.s.StartScan(pid) }

// stepFunc is a one-step operation: f performs exactly one gated step.
type stepFunc func()

func (f stepFunc) Step() bool { f(); return true }

// updateScanRounds returns n machines that each alternate an update writing
// tag{pid, r} (r = 1..rounds) with a scan, stepping the snapshot's cursors
// one register operation at a time; scans[pid] collects pid's scan cursors,
// whose views are read after the run.
func updateScanRounds(n, rounds int, update func(pid int, v Value) *SnapOp, scan func(pid int) *SnapOp) ([]sched.Machine, [][]*SnapOp) {
	scans := make([][]*SnapOp, n)
	return sched.Processes(n, func(pid, i int) sched.Cursor {
		switch r := i/2 + 1; {
		case r > rounds:
			return nil
		case i%2 == 0:
			return update(pid, tag{PID: pid, Seq: r})
		default:
			op := scan(pid)
			scans[pid] = append(scans[pid], op)
			return op
		}
	}), scans
}

// runSnapshotStress drives n processes that alternate updates (tagged with
// increasing per-writer sequence numbers) and scans, then checks the atomic
// snapshot property: all returned views, converted to per-writer sequence
// vectors, must be pairwise comparable, and each process must see its own
// preceding writes.
func runSnapshotStress(t *testing.T, n, rounds int, seed int64, mk func(r *sched.SeqEngine) snapshotUnderTest) {
	t.Helper()
	runner := sched.NewSeqEngine(n, sched.NewRandom(seed), sched.WithMaxSteps(1<<22))
	snap := mk(runner)
	machines, scans := updateScanRounds(n, rounds, snap.StartUpdate, snap.StartScan)
	if _, err := runner.RunMachines(machines); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var vecs [][]int
	for pid := 0; pid < n; pid++ {
		for r, op := range scans[pid] {
			vec := seqVector(op.View(), n)
			if vec[pid] < r+1 {
				t.Fatalf("pid %d round %d: own write missing from view %v", pid, r+1, vec)
			}
			vecs = append(vecs, vec)
		}
	}
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			if !comparableVecs(vecs[i], vecs[j]) {
				t.Fatalf("incomparable views %v and %v: snapshot is not atomic", vecs[i], vecs[j])
			}
		}
	}
}

func TestRegSWSnapshotAtomicity(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		runSnapshotStress(t, 3, 4, seed, func(r *sched.SeqEngine) snapshotUnderTest {
			return NewRegSWSnapshot("S", r, 3, nil)
		})
	}
}

func TestRegSWSnapshotAtomicityWide(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		runSnapshotStress(t, 6, 3, seed, func(r *sched.SeqEngine) snapshotUnderTest {
			return NewRegSWSnapshot("S", r, 6, nil)
		})
	}
}

func TestRegMWSnapshotAtomicity(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		runSnapshotStress(t, 3, 4, seed, func(r *sched.SeqEngine) snapshotUnderTest {
			return mwAdapter{NewRegMWSnapshot("S", r, 3, 3, nil)}
		})
	}
}

func TestRegMWSnapshotSharedComponentNoRegression(t *testing.T) {
	// All writers hammer overlapping components. A given writer's writes to a
	// given component carry increasing sequence numbers in real time, so the
	// register's history for that component shows that writer's tags in
	// increasing order. Two sequential scans by the same process are ordered
	// in real time; the later one must therefore never observe an *older* tag
	// of the same writer at the same component than an earlier one did.
	const n, m, rounds = 3, 2, 4
	for seed := int64(0); seed < 40; seed++ {
		runner := sched.NewSeqEngine(n, sched.NewRandom(seed), sched.WithMaxSteps(1<<22))
		snap := NewRegMWSnapshot("S", runner, m, n, nil)
		update := func(pid int, v Value) *SnapOp { return snap.StartUpdate(pid, (pid+v.(tag).Seq)%m, v) }
		machines, scans := updateScanRounds(n, rounds, update, snap.StartScan)
		if _, err := runner.RunMachines(machines); err != nil {
			t.Fatalf("Run: %v", err)
		}
		for pid := 0; pid < n; pid++ {
			// best[comp][writer] = highest seq seen so far at comp by writer.
			best := make([]map[int]int, m)
			for c := range best {
				best[c] = make(map[int]int)
			}
			for vi, op := range scans[pid] {
				for c, v := range op.View() {
					if v == nil {
						continue
					}
					tg := v.(tag)
					if prev, ok := best[c][tg.PID]; ok && tg.Seq < prev {
						t.Fatalf("seed %d scanner %d view %d: comp %d regressed to (w%d,s%d) after (w%d,s%d)",
							seed, pid, vi, c, tg.PID, tg.Seq, tg.PID, prev)
					}
					best[c][tg.PID] = tg.Seq
				}
			}
		}
	}
}

func TestFreeStepperUsableWithoutScheduler(t *testing.T) {
	s := NewRegSWSnapshot("S", Free{}, 2, nil)
	s.Update(0, "a")
	view := s.Scan(1)
	if view[0] != "a" || view[1] != nil {
		t.Fatalf("view = %v", view)
	}
}

func TestRegSWSnapshotStepAccounting(t *testing.T) {
	// An update embeds a scan; with no contention a scan is two collects of f
	// reads each, and the update adds one write.
	const f = 3
	runner := sched.NewSeqEngine(1, sched.RoundRobin{N: 1})
	snap := NewRegSWSnapshot("S", runner, f, nil)
	res, err := runner.RunMachines(sched.Processes(1, func(pid, i int) sched.Cursor {
		if i > 0 {
			return nil
		}
		return snap.StartUpdate(pid, "x")
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := 2*f + 1 // solo: double collect + write
	if res.Steps != want {
		t.Fatalf("steps = %d, want %d", res.Steps, want)
	}
}

func TestRegistersFromSnapshot(t *testing.T) {
	snap := NewMWSnapshot("M", Free{}, 3, nil)
	regs := RegistersFromSnapshot(snap)
	if len(regs) != 3 {
		t.Fatalf("got %d registers", len(regs))
	}
	regs[1].Write(0, "x")
	if got := regs[1].Read(1); got != "x" {
		t.Fatalf("read = %v", got)
	}
	if got := regs[0].Read(1); got != nil {
		t.Fatalf("untouched register = %v", got)
	}
	// The register view and the snapshot share state.
	if got := snap.Scan(0)[1]; got != "x" {
		t.Fatalf("snapshot comp = %v", got)
	}
}

func TestFetchIncSequential(t *testing.T) {
	f := NewFetchInc("C", Free{})
	for want := 0; want < 5; want++ {
		if got := f.FetchIncrement(0); got != want {
			t.Fatalf("got %d, want %d", got, want)
		}
	}
	if f.Read(1) != 5 {
		t.Fatalf("read = %d", f.Read(1))
	}
}

func TestFetchIncUniqueTickets(t *testing.T) {
	// Under every schedule, fetch-and-increment hands out unique tickets —
	// the strictly-increasing (hence ABA-free, §5.3) behaviour protocols
	// rely on.
	for seed := int64(0); seed < 20; seed++ {
		runner := sched.NewSeqEngine(4, sched.NewRandom(seed), sched.WithMaxSteps(1<<20))
		f := NewFetchInc("C", runner)
		tickets := make([][]int, 4)
		_, err := runner.RunMachines(sched.Processes(4, func(pid, i int) sched.Cursor {
			if i == 5 {
				return nil
			}
			return stepFunc(func() { tickets[pid] = append(tickets[pid], f.FetchIncrement(pid)) })
		}))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for pid := range tickets {
			prev := -1
			for _, tk := range tickets[pid] {
				if seen[tk] {
					t.Fatalf("seed %d: duplicate ticket %d", seed, tk)
				}
				seen[tk] = true
				if tk <= prev {
					t.Fatalf("seed %d: pid %d tickets not increasing: %v", seed, pid, tickets[pid])
				}
				prev = tk
			}
		}
		if len(seen) != 20 {
			t.Fatalf("seed %d: %d tickets, want 20", seed, len(seen))
		}
	}
}

func TestMaxSnapshotOutOfRangePanics(t *testing.T) {
	snap := NewMaxSnapshot("X", Free{}, 1, IntLess)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range update accepted")
		}
	}()
	snap.Update(0, 5, 1)
}
