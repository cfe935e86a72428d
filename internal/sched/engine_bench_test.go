package sched

import "testing"

// The engine gate microbenchmarks isolate the engine's per-step cost, with no
// shared-object work: closure bodies pay a coroutine switch per step,
// machines a direct call.

func benchGateBodies(b *testing.B, n, steps int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		eng := NewSeqEngine(n, RoundRobin{N: n}, WithMaxSteps(1<<30))
		_, err := eng.Run(func(pid int) {
			for s := 0; s < steps; s++ {
				eng.Step(pid, Op{Object: "X", Kind: OpRead, Comp: -1})
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*n*steps)/b.Elapsed().Seconds(), "steps/s")
}

// gateBenchMachine takes `left` one-op steps.
type gateBenchMachine struct {
	gate    Stepper
	pid     int
	left    int
	started bool
}

func (m *gateBenchMachine) Resume() bool {
	if !m.started {
		m.started = true
		return m.left > 0
	}
	m.gate.Step(m.pid, Op{Object: "X", Kind: OpRead, Comp: -1})
	m.left--
	return m.left > 0
}

func benchGateMachines(b *testing.B, n, steps int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		eng := NewSeqEngine(n, RoundRobin{N: n}, WithMaxSteps(1<<30))
		ms := make([]Machine, n)
		for pid := range ms {
			ms[pid] = &gateBenchMachine{gate: eng, pid: pid, left: steps}
		}
		if _, err := eng.RunMachines(ms); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*n*steps)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkGate measures closure bodies (coroutine-bridged) against native
// step machines (direct dispatch).
func BenchmarkGate(b *testing.B) {
	b.Run("bodies", func(b *testing.B) { benchGateBodies(b, 4, 500) })
	b.Run("machines", func(b *testing.B) { benchGateMachines(b, 4, 500) })
}
