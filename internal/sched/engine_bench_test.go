package sched

import "testing"

// The engine gate microbenchmark isolates the engine's per-step cost, with no
// shared-object work: one direct machine call per step.

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

// BenchmarkGate measures the engine's per-step dispatch of step machines.
func BenchmarkGate(b *testing.B) {
	b.Run("machines", func(b *testing.B) { benchGateMachines(b, 4, 500) })
}
