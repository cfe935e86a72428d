package harness

import (
	"fmt"
	"strings"
	"testing"

	"revisionist/internal/protocol"
	"revisionist/internal/trace"
)

// TestRegistryCompleteness is the registry's end-to-end completeness check:
// every registered protocol must validate its defaults, instantiate, and
// survive a tiny-depth exhaustive exploration through the harness. Protocols
// registered as deliberately space-starved are allowed (indeed expected) to
// have violating schedules; everything else must have none.
func TestRegistryCompleteness(t *testing.T) {
	unsafe := map[string]bool{"firstvalue-consensus": true}
	for _, pr := range protocol.Protocols() {
		t.Run(pr.Name, func(t *testing.T) {
			if _, err := pr.Instantiate(protocol.Params{}); err != nil {
				t.Fatalf("defaults do not instantiate: %v", err)
			}
			rep, err := Check(Options{
				Protocol:      pr.Name,
				MaxDepth:      6,
				MaxRuns:       3000,
				MaxViolations: 1,
			})
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if rep.Explore.Runs == 0 {
				t.Fatal("explored no schedules")
			}
			if !unsafe[pr.Name] && len(rep.Explore.Violations) > 0 {
				t.Fatalf("unexpected violation: %v", rep.Explore.Violations[0].Err)
			}
		})
	}
}

// TestCheckFindsStarvedViolation pins the falsification result the README
// documents: the one-register consensus stand-in has a violating schedule.
func TestCheckFindsStarvedViolation(t *testing.T) {
	rep, err := Check(Options{
		Protocol: "firstvalue-consensus",
		Params:   protocol.Params{N: 2},
		MaxDepth: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Explore.Violations) == 0 {
		t.Fatal("expected an agreement violation for the 1-register protocol")
	}
	if got := rep.Explore.Violations[0].Schedule; len(got) == 0 {
		t.Fatal("violation carries no replayable schedule")
	}
}

func TestRunKSet(t *testing.T) {
	rep, err := Run(Options{
		Protocol: "kset",
		Params:   protocol.Params{N: 4, K: 3},
		F:        2,
		Seed:     1,
		Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Config.M != 2 || rep.Config.N != 4 {
		t.Fatalf("unexpected config %+v", rep.Config)
	}
	for i, d := range rep.Result.Done {
		if !d {
			t.Errorf("simulator %d not done (pure covering simulation is wait-free)", i)
		}
	}
	if rep.TaskErr != nil {
		t.Errorf("task validation failed: %v", rep.TaskErr)
	}
	if rep.SpecErr != nil {
		t.Errorf("§3 spec check failed: %v", rep.SpecErr)
	}
	if !rep.Validated || rep.ReconErr != nil {
		t.Errorf("Lemma 26/27 reconstruction failed: validated=%v err=%v", rep.Validated, rep.ReconErr)
	}
}

func TestFuzz(t *testing.T) {
	rep, err := Fuzz(Options{
		Protocol:   "consensus",
		Params:     protocol.Params{N: 2},
		Iterations: 30,
		Seed:       3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fuzz.Evaluated != 30 {
		t.Errorf("evaluated %d schedules, want 30", rep.Fuzz.Evaluated)
	}
	if rep.Fuzz.BestScore <= 0 {
		t.Errorf("best score %v, want > 0 (steps metric)", rep.Fuzz.BestScore)
	}
}

func TestStress(t *testing.T) {
	rep, err := Stress(Options{F: 2, M: 2, Ops: 4, Seeds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("§3 violation on seed %d: %v", rep.FailedSeed, rep.Violation)
	}
	if rep.Schedules != 20 || rep.BlockUpdates == 0 || rep.Scans == 0 {
		t.Errorf("implausible totals: %+v", rep)
	}
}

func TestResolveErrorsAreUsage(t *testing.T) {
	if _, err := Run(Options{Protocol: "nope"}); !IsUsage(err) {
		t.Errorf("unknown protocol: got %v, want usage error", err)
	}
	if _, err := Check(Options{Protocol: "kset", Params: protocol.Params{K: 99}}); !IsUsage(err) {
		t.Errorf("bad params: got %v, want usage error", err)
	}
	if _, err := Run(Options{Protocol: "kset", Engine: "goroutine"}); !IsUsage(err) ||
		!strings.Contains(err.Error(), `"seq"`) {
		t.Errorf("retired engine: got %v, want usage error naming the one engine", err)
	}
}

// checkReportsEqual compares the fields of two exploration reports that the
// workers=1-vs-workers=N determinism contract pins — the pruning counters
// included.
func checkReportsEqual(t *testing.T, tag string, a, b *trace.ExploreReport) {
	t.Helper()
	if a.Runs != b.Runs || a.Truncated != b.Truncated || a.Exhausted != b.Exhausted ||
		a.Pruned != b.Pruned || a.Distinct != b.Distinct ||
		len(a.Violations) != len(b.Violations) {
		t.Fatalf("%s: reports diverge: %+v vs %+v", tag, a, b)
	}
	for i := range a.Violations {
		if fmt.Sprint(a.Violations[i].Schedule) != fmt.Sprint(b.Violations[i].Schedule) ||
			a.Violations[i].Err.Error() != b.Violations[i].Err.Error() {
			t.Fatalf("%s: violation %d diverges: %v vs %v", tag, i, a.Violations[i], b.Violations[i])
		}
	}
}

// TestCheckWorkersDeterministic explores a violating and a correct protocol
// with 1 and 8 workers and requires identical reports, including the
// violation schedules and their order.
func TestCheckWorkersDeterministic(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"violating", Options{Protocol: "firstvalue-consensus", Params: protocol.Params{N: 2},
			MaxDepth: 12, MaxViolations: 5}},
		{"correct-capped", Options{Protocol: "consensus", Params: protocol.Params{N: 2},
			MaxDepth: 18, MaxRuns: 700}},
	} {
		c.opts.Workers = 1
		seq, err := Check(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		c.opts.Workers = 8
		par, err := Check(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		checkReportsEqual(t, c.name, seq.Explore, par.Explore)
	}
}

// TestFuzzWorkersDeterministic requires the same best schedule and score for
// a fixed seed whatever the worker count.
func TestFuzzWorkersDeterministic(t *testing.T) {
	opts := Options{Protocol: "kset", Params: protocol.Params{N: 4, K: 3},
		Iterations: 60, Seed: 11, Workers: 1}
	seq, err := Fuzz(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	par, err := Fuzz(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Fuzz.BestScore != par.Fuzz.BestScore || seq.Fuzz.Evaluated != par.Fuzz.Evaluated ||
		fmt.Sprint(seq.Fuzz.BestSchedule) != fmt.Sprint(par.Fuzz.BestSchedule) {
		t.Fatalf("fuzz diverges across worker counts: %+v vs %+v", seq.Fuzz, par.Fuzz)
	}
}

// TestStressWorkersDeterministic requires identical aggregate stress reports
// for 1 and 8 workers: seed outcomes merge in seed order.
func TestStressWorkersDeterministic(t *testing.T) {
	seq, err := Stress(Options{F: 3, M: 2, Ops: 4, Seeds: 24, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Stress(Options{F: 3, M: 2, Ops: 4, Seeds: 24, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if *seq != *par {
		t.Fatalf("stress reports diverge: %+v vs %+v", *seq, *par)
	}
}

// TestCheckViolationsReplay replays every violation Check reports through
// the same registry factory and requires each to reproduce.
func TestCheckViolationsReplay(t *testing.T) {
	opts := Options{Protocol: "firstvalue-consensus", Params: protocol.Params{N: 2},
		MaxDepth: 12, MaxViolations: 5, Workers: 8}
	rep, err := Check(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Explore.Violations) == 0 {
		t.Fatal("no violations to replay")
	}
	pr, p, err := opts.resolve()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rep.Explore.Violations {
		violErr, runErr := trace.ReplayViolation(p.N, factory(pr, p), v)
		if runErr != nil {
			t.Fatalf("violation %d: replay failed: %v", i, runErr)
		}
		if violErr == nil {
			t.Fatalf("violation %d on schedule %v did not reproduce", i, v.Schedule)
		}
	}
}

// smallCheckParams returns per-protocol parameters small enough that a
// pruned exhaustive exploration at modest depth finishes quickly; protocols
// not listed use their schema defaults.
func smallCheckParams(name string) protocol.Params {
	switch name {
	case "consensus", "paxos", "firstvalue-consensus", "aan":
		return protocol.Params{N: 2}
	case "firstvalue", "singleton":
		return protocol.Params{N: 3}
	case "kset":
		return protocol.Params{N: 3, K: 2}
	case "lane-kset":
		return protocol.Params{N: 3, K: 2, X: 1}
	default:
		return protocol.Params{}
	}
}

// TestCheckPrunedWorkersDeterministic is the determinism contract of pruned
// exploration: for every registered protocol at small bounds, Workers=1 and
// Workers=8 must report the identical Violations slice and Pruned/Distinct
// counts. The stateful explorer guarantees this by sharing closed states
// only across canonical waves of fixed width, never across racing workers.
// It runs under -race in CI (make race covers this package).
func TestCheckPrunedWorkersDeterministic(t *testing.T) {
	for _, pr := range protocol.Protocols() {
		t.Run(pr.Name, func(t *testing.T) {
			opts := Options{
				Protocol:      pr.Name,
				Params:        smallCheckParams(pr.Name),
				MaxDepth:      10,
				MaxRuns:       4000,
				MaxViolations: 3,
				Prune:         true,
				Workers:       1,
			}
			seq, err := Check(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Workers = 8
			par, err := Check(opts)
			if err != nil {
				t.Fatal(err)
			}
			checkReportsEqual(t, pr.Name, seq.Explore, par.Explore)
		})
	}
}

// TestCheckPrunedMatchesUnpruned pins the stateful explorer's soundness and
// its payoff on the symmetric protocols: at exhaustive bounds the pruned
// search must report the same violation set and Exhausted flag as the
// unpruned one while executing at least 2x fewer runs.
func TestCheckPrunedMatchesUnpruned(t *testing.T) {
	violSet := func(rep *trace.ExploreReport) map[string]bool {
		s := map[string]bool{}
		for _, v := range rep.Violations {
			s[v.Err.Error()] = true
		}
		return s
	}
	for _, c := range []struct {
		name  string
		opts  Options
		viols bool
	}{
		{"firstvalue", Options{Protocol: "firstvalue", Params: protocol.Params{N: 4},
			MaxDepth: 20, MaxRuns: 2_000_000}, false},
		{"kset", Options{Protocol: "kset", Params: protocol.Params{N: 4, K: 3},
			MaxDepth: 12, MaxRuns: 2_000_000}, false},
		{"firstvalue-consensus", Options{Protocol: "firstvalue-consensus",
			Params: protocol.Params{N: 2}, MaxDepth: 12, MaxViolations: 5}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain, err := Check(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			opts := c.opts
			opts.Prune = true
			pruned, err := Check(opts)
			if err != nil {
				t.Fatal(err)
			}
			pl, pe := plain.Explore, pruned.Explore
			if pl.Exhausted != pe.Exhausted {
				t.Fatalf("Exhausted diverges: unpruned %v, pruned %v", pl.Exhausted, pe.Exhausted)
			}
			if !c.viols && 2*pe.Runs > pl.Runs {
				t.Fatalf("pruning saved too little: %d unpruned vs %d pruned runs", pl.Runs, pe.Runs)
			}
			if pe.Pruned == 0 != (pe.Runs == pl.Runs) && !c.viols {
				t.Fatalf("inconsistent pruning counters: %+v", pe)
			}
			got, want := violSet(pe), violSet(pl)
			if len(got) != len(want) {
				t.Fatalf("violation sets diverge: pruned %v, unpruned %v", got, want)
			}
			for e := range want {
				if !got[e] {
					t.Fatalf("pruned search lost violation %q", e)
				}
			}
			// Every pruned-found violation replays through a fresh system.
			pr, p, err := opts.resolve()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range pe.Violations {
				violErr, runErr := trace.ReplayViolation(p.N, factory(pr, p), v)
				if runErr != nil {
					t.Fatalf("violation %d: replay failed: %v", i, runErr)
				}
				if violErr == nil {
					t.Fatalf("violation %d did not reproduce on replay", i)
				}
			}
		})
	}
}

// TestPrunedPlanSizes pins the pruned frontier. The planner expands whole
// levels until one reaches its target of 32 subtrees, so a frontier may
// overshoot the target by up to a level's branching factor. The frontier is
// part of a pruned report (its waves decide which closed states each subtree
// sees), so a changed size changes reports.
func TestPrunedPlanSizes(t *testing.T) {
	for _, c := range []struct {
		n, depth        int
		subtrees, waveW int
	}{
		{4, 12, 64, 8}, // 8 waves of 8
		{3, 9, 72, 8},
	} {
		job, err := CheckJob(Options{Protocol: "firstvalue-consensus", Params: protocol.Params{N: c.n}, MaxDepth: c.depth, Prune: true})
		if err != nil {
			t.Fatal(err)
		}
		nprocs, factory, err := Resolve(job)
		if err != nil {
			t.Fatal(err)
		}
		frontier, width, err := trace.SubtreePlan(nprocs, factory, job.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(frontier) != c.subtrees || width != c.waveW {
			t.Errorf("firstvalue-consensus n=%d depth %d: %d subtrees in waves of %d, want %d in waves of %d",
				c.n, c.depth, len(frontier), width, c.subtrees, c.waveW)
		}
	}
}
