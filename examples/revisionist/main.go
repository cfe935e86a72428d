// Revisionist is the flagship demo of the paper's simulation (§4). It shows,
// step by step:
//
//  1. The augmented snapshot in action: Block-Updates that are atomic and
//     return views from the past, and Block-Updates that yield under
//     lower-id contention (Theorem 20).
//  2. Covering simulators revising the past: the statistics of Construct(r)
//     recursion, hidden local steps, and the per-simulator operation caps
//     2b(i)+1 of Lemma 31.
//  3. The reduction that proves Corollary 33: feeding the simulation a
//     "consensus" protocol with fewer registers than the lower bound yields
//     a wait-free protocol among f = n simulators whose outputs disagree —
//     the impossible object whose existence the lower bound forbids.
//
// Run with: go run ./examples/revisionist
package main

import (
	"fmt"
	"log"

	"revisionist/internal/algorithms"
	"revisionist/internal/augsnap"
	"revisionist/internal/bounds"
	"revisionist/internal/core"
	"revisionist/internal/proto"
	"revisionist/internal/sched"
	"revisionist/internal/trace"
)

func main() {
	augmentedSnapshotDemo()
	coveringSimulatorDemo()
	reductionDemo()
}

func augmentedSnapshotDemo() {
	fmt.Println("--- 1. the augmented snapshot (§3) ---")
	a := augsnap.New(nil2(), 2, 3)
	view, atomic := a.BlockUpdate(0, []int{0, 2}, []augsnap.Value{"a", "c"})
	fmt.Printf("q0 Block-Update([0,2]): atomic=%v, returned view=%v (the past: before its own updates)\n", atomic, view)
	view, atomic = a.BlockUpdate(0, []int{1}, []augsnap.Value{"b"})
	fmt.Printf("q0 Block-Update([1]):   atomic=%v, returned view=%v\n", atomic, view)
	fmt.Printf("q1 Scan:                %v\n", a.Scan(1))

	// Force a yield: q1 starts a Block-Update, q0 sneaks in.
	eng := sched.NewSeqEngine(2, sched.StrategyFunc(func(step int, enabled []int) int {
		if step == 0 && contains(enabled, 1) {
			return 1
		}
		if contains(enabled, 0) {
			return 0
		}
		return enabled[0]
	}))
	a2 := augsnap.New(eng, 2, 2)
	bus := make([]*augsnap.BlockUpdateOp, 2)
	if _, err := eng.RunMachines(sched.Processes(2, func(pid, i int) sched.Cursor {
		if i > 0 {
			return nil
		}
		bus[pid] = a2.StartBlockUpdate(pid, []int{pid}, []augsnap.Value{pid})
		return bus[pid]
	})); err != nil {
		log.Fatal(err)
	}
	_, at0 := bus[0].Result()
	_, at1 := bus[1].Result()
	fmt.Printf("under lower-id contention: q0 yielded=%v (never), q1 yielded=%v (Theorem 20)\n\n", !at0, !at1)
}

func coveringSimulatorDemo() {
	fmt.Println("--- 2. covering simulators revise the past (§4) ---")
	const n, k = 9, 7 // m = 3: Construct(3) with nested revisions
	cfg := core.Config{N: n, M: 3, F: 3, D: 0}
	inputs := []proto.Value{"red", "green", "blue"}
	res, err := core.Run(cfg, inputs, func(in []proto.Value) ([]proto.Process, error) {
		ps, _, err := algorithms.NewKSetAgreement(n, k, in)
		return ps, err
	}, sched.NewRandom(42))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < cfg.F; i++ {
		capOps := bounds.SimulationOpsCap(cfg.M, i+1)
		fmt.Printf("q%d: output=%-6v from p%d | %d Block-Updates, %d Scans, %d revisions | ops %d <= 2b(%d)+1 = %.0f\n",
			i, res.Outputs[i], res.OutputBy[i], res.BlockUpdates[i], res.Scans[i], res.Revisions[i],
			res.Operations(i), i+1, capOps)
	}
	if err := trace.Check(res.Log, cfg.M); err != nil {
		log.Fatal("augmented snapshot spec: ", err)
	}
	fmt.Println("offline §3 specification check of the whole history: ok")
	fmt.Println()
}

func reductionDemo() {
	fmt.Println("--- 3. the reduction behind Corollary 33 ---")
	const n = 4
	fmt.Printf("consensus among n=%d needs >= %d registers; feed the simulation a 1-register \"consensus\":\n",
		n, bounds.ConsensusLB(n))
	cfg := core.Config{N: n, M: 1, F: n, D: 0}
	inputs := make([]proto.Value, n)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("v%d", i)
	}
	res, err := core.Run(cfg, inputs, func(in []proto.Value) ([]proto.Process, error) {
		procs := make([]proto.Process, len(in))
		for i := range procs {
			procs[i] = algorithms.NewFirstValue(0, in[i])
		}
		return procs, nil
	}, sched.NewRandom(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the derived protocol is wait-free: done=%v\n", res.Done)
	fmt.Printf("...and it \"solves\" consensus with outputs %v\n", res.Outputs)
	distinct := map[proto.Value]bool{}
	for _, o := range res.Outputs {
		distinct[o] = true
	}
	fmt.Printf("=> %d distinct outputs: wait-free consensus among %d processes is impossible, so no\n", len(distinct), n)
	fmt.Println("   correct obstruction-free consensus protocol can use this few registers. QED (operationally).")
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// nil2 returns a stepper admitting everything (solo demos).
type freeStepper struct{}

func (freeStepper) Step(int, sched.Op) {}

func nil2() freeStepper { return freeStepper{} }
