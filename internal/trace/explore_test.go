package trace

import (
	"fmt"
	"testing"

	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// stepFunc is a one-step operation: f performs exactly one gated step.
type stepFunc func()

func (f stepFunc) Step() bool { f(); return true }

// oneStepOps returns n machines: process pid performs the one-step
// operations ops(pid) returns, in order.
func oneStepOps(n int, ops func(pid int) []func()) []sched.Machine {
	lists := make([][]func(), n)
	for pid := range lists {
		lists[pid] = ops(pid)
	}
	return sched.Processes(n, func(pid, i int) sched.Cursor {
		if i == len(lists[pid]) {
			return nil
		}
		return stepFunc(lists[pid][i])
	})
}

// counterSystem: two processes each write their pid then read back; check can
// be told to flag a specific final read by process 0. The final value is
// captured by the read operation — Check must not touch gated objects, since
// the scheduler has already shut down when it runs.
func counterSystem(flagValue shmem.Value) Factory {
	return func(runner sched.Stepper) System {
		reg := shmem.NewRegister("R", runner, nil)
		var lastRead [2]shmem.Value
		return System{
			Machines: writeThenRead(reg, lastRead[:]),
			Check: func(*sched.Result) error {
				if flagValue != nil && lastRead[0] == flagValue {
					return fmt.Errorf("flagged value reached")
				}
				return nil
			},
		}
	}
}

func TestExploreExhaustsSmallSpace(t *testing.T) {
	rep, err := Explore(2, counterSystem(nil), ExploreOpts{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exhausted {
		t.Fatal("small space not exhausted")
	}
	// Two processes, four ops: C(4,2) = 6 interleavings.
	if rep.Runs != 6 {
		t.Fatalf("runs = %d, want 6", rep.Runs)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", rep.Violations)
	}
}

func TestExploreFindsViolation(t *testing.T) {
	// Flag the schedules in which process 1's write lands last.
	rep, err := Explore(2, counterSystem(1), ExploreOpts{MaxDepth: 10, MaxViolations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("no violation found")
	}
	// Replaying a violating schedule reproduces it.
	v := rep.Violations[0]
	runner := sched.NewSeqEngine(2, sched.Replay{Choices: v.Schedule, Fallback: sched.RoundRobin{N: 2}})
	reg := shmem.NewRegister("R", runner, nil)
	var lastRead [2]shmem.Value
	if _, err := runner.RunMachines(writeThenRead(reg, lastRead[:])); err != nil {
		t.Fatal(err)
	}
	if lastRead[0] != 1 {
		t.Fatalf("replay of violating schedule gives %v, want 1", lastRead[0])
	}
}

func TestExploreRespectsMaxRuns(t *testing.T) {
	rep, err := Explore(2, counterSystem(nil), ExploreOpts{MaxDepth: 10, MaxRuns: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 3 || rep.Exhausted {
		t.Fatalf("runs=%d exhausted=%v", rep.Runs, rep.Exhausted)
	}
}

func TestExploreTruncatesAtDepth(t *testing.T) {
	factory := func(runner sched.Stepper) System {
		reg := shmem.NewRegister("R", runner, nil)
		return System{
			Machines: sched.Processes(1, func(pid, i int) sched.Cursor {
				if i == 100 {
					return nil
				}
				return stepFunc(func() { reg.Write(pid, i) })
			}),
			Check: func(*sched.Result) error { return nil },
		}
	}
	rep, err := Explore(1, factory, ExploreOpts{MaxDepth: 5, MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated == 0 {
		t.Fatal("expected truncated runs")
	}
}

func TestExploreRejectsBadDepth(t *testing.T) {
	if _, err := Explore(1, counterSystem(nil), ExploreOpts{}); err == nil {
		t.Fatal("MaxDepth 0 accepted")
	}
}

func TestBacktrackOrder(t *testing.T) {
	// backtrack must load the DFS-next prefix and return its last depth.
	mk := func(floor int, enabled [][]int, picks []int) *explorer {
		ex := &explorer{floor: floor, offs: []int{0}, picks: picks}
		for _, e := range enabled {
			ex.flat = append(ex.flat, e...)
			ex.offs = append(ex.offs, len(ex.flat))
		}
		return ex
	}
	ex := mk(0, [][]int{{0, 1}, {0, 1}, {1}}, []int{0, 0, 1})
	if d := ex.backtrack(); d != 1 || fmt.Sprint(ex.prefix) != "[0 1]" {
		t.Fatalf("backtrack = %d, prefix %v; want 1, [0 1]", d, ex.prefix)
	}
	// Fully explored space returns -1.
	if d := mk(0, [][]int{{0}}, []int{0}).backtrack(); d != -1 {
		t.Fatalf("backtrack = %d, want -1 for an exhausted space", d)
	}
	// A floor keeps subtree exploration from unwinding into sibling
	// subtrees: the same state with floor 1 has no sibling below the root.
	if d := mk(1, [][]int{{0, 1}, {1}}, []int{0, 1}).backtrack(); d != -1 {
		t.Fatalf("backtrack = %d, want -1 when the only sibling is above the floor", d)
	}
}

// writeThenRead returns one machine per entry of lastRead: process pid writes
// its pid to reg, then reads reg into lastRead[pid].
func writeThenRead(reg *shmem.Register, lastRead []shmem.Value) []sched.Machine {
	return oneStepOps(len(lastRead), func(pid int) []func() {
		return []func(){
			func() { reg.Write(pid, pid) },
			func() { lastRead[pid] = reg.Read(pid) },
		}
	})
}
