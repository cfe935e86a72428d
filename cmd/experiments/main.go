// Command experiments regenerates every table recorded in EXPERIMENTS.md:
// the bound tables of Corollaries 33–34 (T1, T2), the Lemma 2 step-count and
// Theorem 20 yield measurements (E3, E4), the simulation experiments of
// Theorem 21 (E5), the reduction falsification (E6), the Theorem 35
// conversion (E7) and the upper-bound protocol measurements (E8). The
// Figure 1 layout (F1) is printed first.
//
// All protocol instances come from the registry (internal/protocol) and all
// simulation runs go through the harness (internal/harness).
//
// E9 measures stateful exploration: state-fingerprint pruning + subtree
// checkpointing against the plain exhaustive search. E10 adds symmetry
// reduction on top: canonical fingerprints that collapse process-permutation
// orbits, tabulating the orbit-collapse ratio.
//
// Usage:
//
//	experiments [-section all|f1|t1|t2|e3|e4|e5|e5b|e6|e7|e8|e9|e10]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"revisionist/internal/augsnap"
	"revisionist/internal/bounds"
	"revisionist/internal/core"
	"revisionist/internal/harness"
	"revisionist/internal/nst"
	"revisionist/internal/proto"
	"revisionist/internal/protocol"
	"revisionist/internal/sched"
	"revisionist/internal/spec"
	"revisionist/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if harness.IsUsage(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// exps carries the flag-level configuration through the experiment funcs.
type exps struct {
	out     io.Writer
	workers int
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	section := fs.String("section", "all", "which section to print")
	workers := harness.WorkersFlag(fs)
	// -prune is part of the shared cmd surface; E9 measures pruned and plain
	// exploration side by side regardless of the flag.
	harness.PruneFlag(fs)
	if err := harness.ParseFlags(fs, args); err != nil {
		return err
	}
	e := &exps{out: out, workers: *workers}
	sections := []struct {
		name string
		fn   func() error
	}{
		{"f1", e.f1Layout},
		{"t1", e.t1SetAgreementBounds},
		{"t2", e.t2ApproxAgreement},
		{"e3", e.e3StepCounts},
		{"e4", e.e4YieldConditions},
		{"e5", e.e5Simulation},
		{"e5b", e.e5bGrowth},
		{"e6", e.e6Falsification},
		{"e7", e.e7Conversion},
		{"e8", e.e8UpperBounds},
		{"e9", e.e9StatePruning},
		{"e10", e.e10Symmetry},
	}
	known := *section == "all"
	for _, s := range sections {
		if *section == "all" || *section == s.name {
			known = true
			if err := s.fn(); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			fmt.Fprintln(e.out)
		}
	}
	if !known {
		return &harness.UsageError{Err: fmt.Errorf("unknown section %q", *section)}
	}
	return nil
}

func (e *exps) f1Layout() error {
	fmt.Fprintln(e.out, "== F1: Figure 1 — real and simulated systems ==")
	harness.WriteLayout(e.out, core.Config{N: 10, M: 3, F: 4, D: 1})
	return nil
}

func (e *exps) t1SetAgreementBounds() error {
	fmt.Fprintln(e.out, "== T1: Corollary 33 — registers for x-obstruction-free k-set agreement ==")
	fmt.Fprintf(e.out, "%4s %4s %4s | %9s %9s %6s\n", "n", "k", "x", "LB(paper)", "UB([16])", "tight")
	for _, n := range []int{4, 8, 16, 32, 64} {
		for _, k := range dedupe([]int{1, 2, n / 2, n - 1}, 1, n-1) {
			for _, x := range dedupe([]int{1, (k + 1) / 2, k}, 1, k) {
				lb, err := bounds.SetAgreementLB(n, k, x)
				if err != nil {
					return err
				}
				ub, _ := bounds.SetAgreementUB(n, k, x)
				tight := ""
				if lb == ub {
					tight = "yes"
				}
				fmt.Fprintf(e.out, "%4d %4d %4d | %9d %9d %6s\n", n, k, x, lb, ub, tight)
			}
		}
	}
	fmt.Fprintln(e.out, "consensus (k=x=1): LB = UB = n (tight); (n-1)-set (x=1): LB = UB = 2 (tight)")
	return nil
}

func (e *exps) t2ApproxAgreement() error {
	fmt.Fprintln(e.out, "== T2: Corollary 34 — eps-approximate agreement (n = 16) ==")
	fmt.Fprintf(e.out, "%10s | %8s %12s | %14s %14s %12s\n", "eps", "space LB", "step LB(2p)", "AA2 ops (meas)", "AAN ops (n=8)", "2R+1 (pred)")
	aa2, aan := protocol.MustLookup("aa2"), protocol.MustLookup("aan")
	for _, eps := range []float64{0.25, 0.1, 0.01, 1e-3, 1e-4, 1e-6} {
		lb, err := bounds.ApproxAgreementSpaceLB(16, eps)
		if err != nil {
			return err
		}
		inst, err := aa2.Instantiate(protocol.Params{Eps: eps})
		if err != nil {
			return err
		}
		res, _, rerr := proto.Run(inst.Procs, inst.M, nil, sched.RoundRobin{N: 2}, sched.WithMaxSteps(1_000_000))
		if rerr != nil {
			return rerr
		}
		// The n-process protocol (n components, the [9]-style upper bound):
		// worst-case ops per process across an adversarial run.
		ninst, err := aan.Instantiate(protocol.Params{N: 8, Eps: eps})
		if err != nil {
			return err
		}
		nres, _, rerr2 := proto.Run(ninst.Procs, ninst.M, nil, sched.Alternator{Burst: 3}, sched.WithMaxSteps(1_000_000))
		if rerr2 != nil {
			return rerr2
		}
		maxOps := 0
		for _, o := range nres.OpsBy {
			if o > maxOps {
				maxOps = o
			}
		}
		fmt.Fprintf(e.out, "%10.0e | %8d %12.1f | %14d %14d %12d\n",
			eps, lb, bounds.ApproxAgreementStepLB(eps), res.OpsBy[0], maxOps, 2*bounds.AA2Rounds(eps)+1)
	}
	fmt.Fprintln(e.out, "symbolic regime: log3(1/eps) = 2^80 gives space LB", mustLB3(16, math.Pow(2, 80)), "= ⌊n/2⌋+1 (covering term)")
	return nil
}

// dedupe keeps in-range values, first occurrence only, preserving order.
func dedupe(vals []int, lo, hi int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range vals {
		if v < lo || v > hi || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

func mustLB3(n int, l3 float64) int {
	lb, err := bounds.ApproxAgreementSpaceLBFromLog3(n, l3)
	if err != nil {
		panic(err)
	}
	return lb
}

// stressLogs runs the workloads of seeds 0..n-1 across the -workers pool and
// returns their operation logs in seed order, so aggregating over them stays
// deterministic for any worker count.
func (e *exps) stressLogs(f, m, ops, n int) ([]*augsnap.Log, error) {
	logs := make([]*augsnap.Log, n)
	errs := make([]error, n)
	trace.RunOnPool(trace.ResolveWorkers(e.workers), n, func(i int) {
		if a, err := harness.StressWorkload("", f, m, ops, int64(i)); err != nil {
			errs[i] = err
		} else {
			logs[i] = a.Log()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return logs, nil
}

func (e *exps) e3StepCounts() error {
	fmt.Fprintln(e.out, "== E3: Lemma 2 — step counts on the single-writer snapshot H ==")
	fmt.Fprintf(e.out, "%3s %3s | %10s %12s | %10s %12s %9s\n", "f", "m", "BU steps", "(atomic=6)", "Scan max", "bound 2k+3", "checked")
	for _, f := range []int{2, 4, 8} {
		m := 3
		buOK, scanMax, scanBound := true, 0, 0
		var nBU, nScan int
		logs, err := e.stressLogs(f, m, 6, 30)
		if err != nil {
			return err
		}
		for _, log := range logs {
			if err := trace.Check(log, m); err != nil {
				return err
			}
			nBU += len(log.BUs)
			nScan += len(log.Scans)
			for _, sr := range log.Scans {
				k := 0
				for _, ev := range log.Events {
					if ev.Seq > sr.StartSeq && ev.Seq < sr.LinSeq && ev.PID != sr.PID && len(ev.Appended) > 0 {
						k++
					}
				}
				if sr.HOps > scanMax {
					scanMax = sr.HOps
				}
				if 2*k+3 > scanBound {
					scanBound = 2*k + 3
				}
				if sr.HOps > 2*k+3 {
					buOK = false
				}
			}
		}
		fmt.Fprintf(e.out, "%3d %3d | %10s %12s | %10d %12d %9d\n", f, m, "6/5", ok(buOK), scanMax, scanBound, nBU+nScan)
	}
	fmt.Fprintln(e.out, "(Block-Updates take exactly 6 H-operations, 5 when yielding at line 10; verified by trace.Check)")
	return nil
}

func ok(b bool) string {
	if b {
		return "ok"
	}
	return "VIOLATED"
}

func (e *exps) e4YieldConditions() error {
	fmt.Fprintln(e.out, "== E4: Theorem 20 — yield conditions ==")
	fmt.Fprintf(e.out, "%3s | %8s %8s %10s %12s\n", "f", "BUs", "yields", "by q0", "spec checks")
	for _, f := range []int{2, 4, 6} {
		var bus, yields, byQ0 int
		allOK := true
		logs, err := e.stressLogs(f, 3, 6, 40)
		if err != nil {
			return err
		}
		for _, log := range logs {
			if err := trace.Check(log, 3); err != nil {
				allOK = false
			}
			for _, bu := range log.BUs {
				bus++
				if bu.Yielded {
					yields++
					if bu.PID == 0 {
						byQ0++
					}
				}
			}
		}
		fmt.Fprintf(e.out, "%3d | %8d %8d %10d %12s\n", f, bus, yields, byQ0, ok(allOK))
	}
	fmt.Fprintln(e.out, "(q0 never yields; every yield has a lower-id triple-append inside its interval — checked offline)")
	return nil
}

func (e *exps) e5Simulation() error {
	fmt.Fprintln(e.out, "== E5: Theorem 21 machinery — wait-free simulation runs ==")
	cases := []struct {
		name string
		opts harness.Options
	}{
		{"first-value n=8 m=1 f=8", harness.Options{Protocol: "firstvalue", Params: protocol.Params{N: 8}, F: 8}},
		{"3-set n=4 m=2 f=2", harness.Options{Protocol: "kset", Params: protocol.Params{N: 4, K: 3}, F: 2}},
		{"7-set n=9 m=3 f=3", harness.Options{Protocol: "kset", Params: protocol.Params{N: 9, K: 7}, F: 3}},
		{"3-set n=4 m=2 f=3 d=2", harness.Options{Protocol: "kset", Params: protocol.Params{N: 4, K: 3}, F: 3, D: 2}},
	}
	fmt.Fprintf(e.out, "%-26s | %6s %6s %6s %8s %10s %12s %8s %8s\n", "experiment", "runs", "done", "valid", "maxBU", "maxOps", "2b(i)+1 ok", "revis.", "recon")
	for _, c := range cases {
		c.opts.Validate = true
		var runs, done, valid, maxBU, maxOps, revis, recon int
		capsOK := true
		for seed := int64(0); seed < 30; seed++ {
			c.opts.Seed = seed
			rep, err := harness.Run(c.opts)
			if err != nil && !harness.IsStarved(err) {
				return err
			}
			res, cfg := rep.Result, rep.Config
			runs++
			all := true
			for _, dn := range res.Done {
				all = all && dn
			}
			if all {
				done++
			}
			if rep.TaskErr == nil {
				valid++
			}
			for i := 0; i < cfg.NumCovering(); i++ {
				if res.BlockUpdates[i] > maxBU {
					maxBU = res.BlockUpdates[i]
				}
				if res.Operations(i) > maxOps {
					maxOps = res.Operations(i)
				}
				if float64(res.Operations(i)) > bounds.SimulationOpsCap(cfg.M, i+1) {
					capsOK = false
				}
				revis += res.Revisions[i]
			}
			if rep.SpecErr != nil {
				return rep.SpecErr
			}
			if rep.Validated {
				if rep.ReconErr != nil {
					return fmt.Errorf("Lemma 26 reconstruction: %w", rep.ReconErr)
				}
				recon++
			}
		}
		fmt.Fprintf(e.out, "%-26s | %6d %6d %6d %8d %10d %12s %8d %8d\n", c.name, runs, done, valid, maxBU, maxOps, ok(capsOK), revis, recon)
	}
	fmt.Fprintln(e.out, "(d=0 rows are wait-free: done = runs; recon counts runs whose simulated execution was reconstructed")
	fmt.Fprintln(e.out, " with hidden revised steps inserted and replayed as a legal execution of the protocol — Lemmas 26-27)")
	return nil
}

func (e *exps) e5bGrowth() error {
	fmt.Fprintln(e.out, "== E5b: ablation — measured simulation cost vs the a(m)/b(i) worst case ==")
	fmt.Fprintf(e.out, "%3s %3s %3s | %10s %12s | %12s %14s\n", "m", "n", "f", "max BU", "max ops", "b(f) cap", "2b(f)+1 cap")
	for _, m := range []int{1, 2, 3, 4} {
		n := 3 * m
		f := 3
		k := n - m + 1
		// m = 1 forces k >= n, which k-set agreement excludes; the
		// one-register firstvalue protocol is the m = 1 workload.
		opts := harness.Options{Protocol: "kset", Params: protocol.Params{N: n, K: k}, F: f}
		if k >= n {
			opts = harness.Options{Protocol: "firstvalue", Params: protocol.Params{N: n}, F: f}
		}
		maxBU, maxOps := 0, 0
		for seed := int64(0); seed < 40; seed++ {
			opts.Seed = seed
			rep, err := harness.Run(opts)
			if err != nil {
				return err
			}
			for i := 0; i < f; i++ {
				if rep.Result.BlockUpdates[i] > maxBU {
					maxBU = rep.Result.BlockUpdates[i]
				}
				if rep.Result.Operations(i) > maxOps {
					maxOps = rep.Result.Operations(i)
				}
			}
		}
		fmt.Fprintf(e.out, "%3d %3d %3d | %10d %12d | %12.3g %14.3g\n",
			m, n, f, maxBU, maxOps, bounds.B(m, f), bounds.SimulationOpsCap(m, f))
	}
	fmt.Fprintln(e.out, "(measured covering-simulator cost grows mildly with m; the Lemma 30 bound b(i) is a")
	fmt.Fprintln(e.out, " worst-case over adversarial yield patterns and is orders of magnitude above real runs)")
	return nil
}

func (e *exps) e6Falsification() error {
	fmt.Fprintln(e.out, "== E6: the reduction, contrapositively — starved consensus through the simulation ==")
	fmt.Fprintf(e.out, "%3s %3s | %8s %10s %12s\n", "n", "f", "runs", "all done", "disagree")
	for _, nf := range [][2]int{{2, 2}, {4, 4}, {8, 8}} {
		n, f := nf[0], nf[1]
		var done, disagree int
		const runs = 200
		for seed := int64(0); seed < runs; seed++ {
			rep, err := harness.Run(harness.Options{
				Protocol: "firstvalue-consensus",
				Params:   protocol.Params{N: n},
				F:        f,
				Seed:     seed,
			})
			if err != nil {
				return err
			}
			all := true
			for _, d := range rep.Result.Done {
				all = all && d
			}
			if all {
				done++
			}
			if rep.TaskErr != nil {
				disagree++
			}
		}
		fmt.Fprintf(e.out, "%3d %3d | %8d %10d %12d\n", n, f, runs, done, disagree)
	}
	fmt.Fprintln(e.out, "(the derived f-process protocol is wait-free in every run — and disagrees on many schedules,")
	fmt.Fprintln(e.out, " which is exactly why a correct obstruction-free consensus protocol needs >= n registers)")
	return nil
}

func (e *exps) e7Conversion() error {
	fmt.Fprintln(e.out, "== E7: Theorem 35 — determinizing nondeterministic solo-terminating protocols ==")
	fmt.Fprintf(e.out, "%-12s %3s | %10s %12s %10s\n", "machine", "m", "solo dist", "OF (solo ok)", "runs valid")
	type mc struct {
		name string
		mach nst.Machine
		m    int
	}
	for _, c := range []mc{
		{"adopt-keep", nst.AdoptOrKeep{Comp: 0}, 1},
		{"multicoin-2", nst.MultiCoin{M: 2}, 2},
		{"multicoin-3", nst.MultiCoin{M: 3}, 3},
	} {
		conv := nst.NewConverter(c.mach, c.m)
		p := nst.NewProcess(conv, "x")
		d, err := p.SoloDistance()
		if err != nil {
			return err
		}
		ofOK, valid := true, 0
		const n = 3
		for solo := 0; solo < n; solo++ {
			procs := make([]proto.Process, n)
			inputs := make([]proto.Value, n)
			for i := range procs {
				inputs[i] = fmt.Sprintf("v%d", i)
				procs[i] = nst.NewProcess(nst.NewConverter(c.mach, c.m), inputs[i])
			}
			res, _, rerr := proto.Run(procs, c.m, nil,
				sched.Solo{PID: solo, After: 6, Fallback: sched.RoundRobin{N: n}}, sched.WithMaxSteps(100_000))
			if rerr != nil || !res.Done[solo] {
				ofOK = false
				continue
			}
			if (spec.Trivial{}).Validate(inputs, res.DoneOutputs()) == nil {
				valid++
			}
		}
		fmt.Fprintf(e.out, "%-12s %3d | %10d %12s %10d/%d\n", c.name, c.m, d, ok(ofOK), valid, n)
	}
	fmt.Fprintln(e.out, "(solo distance strictly decreases along solo runs of Π′; every transition of Π′ is a transition of Π)")
	return nil
}

func (e *exps) e8UpperBounds() error {
	fmt.Fprintln(e.out, "== E8: upper-bound protocols vs Corollary 33 ==")
	fmt.Fprintf(e.out, "%-22s | %4s %4s %4s | %9s %9s %9s | %8s\n", "protocol", "n", "k", "x", "m used", "LB", "UB", "solo ok")
	for _, c := range []struct {
		protocol string
		params   protocol.Params
	}{
		{"consensus", protocol.Params{N: 6}},
		{"kset", protocol.Params{N: 8, K: 4}},
		{"kset", protocol.Params{N: 8, K: 7}},
		{"lane-kset", protocol.Params{N: 8, K: 5, X: 3}},
		{"lane-kset", protocol.Params{N: 10, K: 9, X: 4}},
	} {
		pr, err := protocol.Lookup(c.protocol)
		if err != nil {
			return err
		}
		inst, err := pr.Instantiate(c.params)
		if err != nil {
			return err
		}
		lb, ub, err := pr.SpaceBounds(inst.Params)
		if err != nil {
			return err
		}
		soloOK := true
		for solo := 0; solo < inst.Params.N; solo++ {
			cp := proto.CloneAll(inst.Procs)
			res, _, rerr := proto.Run(cp, inst.M, nil,
				sched.Solo{PID: solo, Fallback: sched.RoundRobin{N: inst.Params.N}}, sched.WithMaxSteps(100_000))
			if rerr != nil || !res.Done[solo] {
				soloOK = false
			}
		}
		x := inst.Params.X
		if x == 0 {
			x = 1
		}
		k := inst.Params.K
		if k == 0 {
			k = 1
		}
		fmt.Fprintf(e.out, "%-22s | %4d %4d %4d | %9d %9d %9d | %8s\n",
			pr.Name, inst.Params.N, k, x, inst.M, lb, ub, ok(soloOK))
	}
	fmt.Fprintln(e.out, "(m used always equals UB = n-k+x and never falls below LB; consensus and (n-1)-set are tight)")
	return nil
}

// e9StatePruning compares stateful exploration (state-fingerprint pruning +
// subtree checkpointing, the -prune path) against the plain exhaustive
// search on symmetric protocols: the violation sets and Exhausted flags must
// agree while the pruned search executes a fraction of the runs.
func (e *exps) e9StatePruning() error {
	fmt.Fprintln(e.out, "== E9: stateful exploration — state-fingerprint pruning + subtree checkpointing ==")
	fmt.Fprintf(e.out, "%-22s %6s | %10s %10s %7s | %8s %10s %6s\n",
		"protocol", "depth", "plain runs", "pruned", "ratio", "distinct", "violations", "agree")
	for _, c := range []struct {
		protocol string
		params   protocol.Params
		depth    int
	}{
		{"firstvalue", protocol.Params{N: 3}, 20},
		{"firstvalue", protocol.Params{N: 4}, 20},
		{"kset", protocol.Params{N: 4, K: 3}, 14},
		{"firstvalue-consensus", protocol.Params{N: 2}, 12},
	} {
		opts := harness.Options{
			Protocol: c.protocol,
			Params:   c.params,
			Workers:  e.workers,
			MaxDepth: c.depth,
			MaxRuns:  2_000_000,
		}
		plain, err := harness.Check(opts)
		if err != nil {
			return err
		}
		opts.Prune = true
		pruned, err := harness.Check(opts)
		if err != nil {
			return err
		}
		pe, pl := pruned.Explore, plain.Explore
		agree := pe.Exhausted == pl.Exhausted && violationSet(pe) == violationSet(pl)
		ratio := float64(pl.Runs) / math.Max(float64(pe.Runs), 1)
		fmt.Fprintf(e.out, "%-22s %6d | %10d %10d %6.1fx | %8d %6d/%-3d %6s\n",
			c.protocol, c.depth, pl.Runs, pe.Runs, ratio, pe.Distinct,
			len(pe.Violations), len(pl.Violations), ok(agree))
	}
	fmt.Fprintln(e.out, "(pruning cuts subtrees whose root configuration was already fully explored; the violation")
	fmt.Fprintln(e.out, " set and Exhausted flag are preserved because the task checks are functions of the state)")
	return nil
}

// e10Symmetry measures symmetry reduction on top of pruning (the -symmetry
// path): the visited-state cache keyed by canonical fingerprints that
// collapse process-permutation orbits. The orbit-collapse ratio is distinct
// states under plain pruning over distinct states under symmetry — bounded by
// |G| (n! for firstvalue's full symmetric group) and reached only when every
// orbit is full-size.
func (e *exps) e10Symmetry() error {
	fmt.Fprintln(e.out, "== E10: symmetry reduction — canonical fingerprints over process-permutation orbits ==")
	fmt.Fprintf(e.out, "%-22s %6s | %10s %10s | %9s %9s %9s | %6s\n",
		"protocol", "depth", "pruned", "symmetry", "distinct", "sym dist", "collapse", "agree")
	for _, c := range []struct {
		protocol string
		params   protocol.Params
		depth    int
	}{
		{"firstvalue", protocol.Params{N: 3}, 20},
		{"firstvalue", protocol.Params{N: 4}, 20},
		{"kset", protocol.Params{N: 4, K: 3}, 14},
	} {
		opts := harness.Options{
			Protocol: c.protocol,
			Params:   c.params,
			Workers:  e.workers,
			MaxDepth: c.depth,
			MaxRuns:  2_000_000,
			Prune:    true,
		}
		pruned, err := harness.Check(opts)
		if err != nil {
			return err
		}
		opts.Symmetry = true
		sym, err := harness.Check(opts)
		if err != nil {
			return err
		}
		pe, se := pruned.Explore, sym.Explore
		// Violations may differ modulo renaming interchangeable processes;
		// Exhausted and violation presence must agree exactly.
		agree := pe.Exhausted == se.Exhausted &&
			(len(pe.Violations) > 0) == (len(se.Violations) > 0)
		collapse := float64(pe.Distinct) / math.Max(float64(se.Distinct), 1)
		fmt.Fprintf(e.out, "%-22s %6d | %10d %10d | %9d %9d %8.1fx | %6s\n",
			c.protocol, c.depth, pe.Runs, se.Runs, pe.Distinct, se.Distinct, collapse, ok(agree))
	}
	fmt.Fprintln(e.out, "(collapse = pruned-distinct / symmetry-distinct: how many pid-permuted duplicates one")
	fmt.Fprintln(e.out, " canonical fingerprint absorbs; firstvalue declares the full S_n group with input renaming,")
	fmt.Fprintln(e.out, " kset only its k-1 interchangeable singletons, so its orbits are small)")
	return nil
}

// violationSet canonicalizes a report's violations to the set of distinct
// check errors (state pruning preserves the set, not the multiset).
func violationSet(rep *trace.ExploreReport) string {
	seen := map[string]bool{}
	for _, v := range rep.Violations {
		seen[v.Err.Error()] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}
