package trace

import (
	"fmt"

	"revisionist/internal/sched"
)

// FuzzOpts configures an adversarial schedule search.
type FuzzOpts struct {
	// Iterations is the total number of candidate schedules evaluated,
	// across the whole population.
	Iterations int
	// Seed makes the search reproducible: it is split (sched.SplitSeed) into
	// one independent PCG stream per climber, and further into one fallback
	// seed per evaluation, so the random tail past the evolved prefix varies
	// between evaluations instead of replaying identically.
	Seed int64
	// ScheduleLen is the length of the evolved choice prefix (beyond it the
	// run falls back to a seeded random strategy).
	ScheduleLen int
	// MaxSteps bounds each run.
	MaxSteps int
	// Population is the number of independent hill-climbers evolved side by
	// side (default 4, clamped to Iterations), sharing their best prefix at
	// epoch barriers. The population structure depends only on (Seed,
	// Population, Iterations) — never on Workers — so a search is
	// reproducible across machines and worker counts.
	Population int
	// Workers sets the evaluation worker-pool size (0 = GOMAXPROCS). It
	// changes wall-clock only, never the report: climbers are independent
	// within an epoch and merge deterministically at the barrier.
	Workers int
}

// FuzzReport is the outcome of a schedule search.
type FuzzReport struct {
	BestSchedule []int
	BestScore    float64
	Evaluated    int
}

// climber is one member of the hill-climbing population: a best-known
// prefix, a reusable candidate buffer, and a private split-seeded stream.
type climber struct {
	seed      int64 // split seed; evaluation fallback seeds derive from it
	rng       *sched.Random
	best      []int
	cand      []int // mutation buffer, swapped with best on improvement
	bestScore float64
	evals     int // evaluations performed so far
	quota     int // total evaluations assigned
	err       error
}

// evaluate runs one candidate prefix on a fresh system. The fallback tail is
// seeded per evaluation (split from the climber seed by the evaluation
// ordinal), so repeated evaluations of similar prefixes explore different
// tails.
func (c *climber) evaluate(prefix []int, nprocs int, factory Factory,
	metric func(res *sched.Result) float64, opts FuzzOpts) (float64, error) {

	strat := sched.Replay{Choices: prefix, Fallback: sched.NewRandom(sched.SplitSeed(c.seed, int64(c.evals)))}
	eng := sched.NewSeqEngine(nprocs, strat, sched.WithMaxSteps(opts.MaxSteps))
	sys := factory(eng)
	res, err := eng.RunMachines(sys.Machines)
	if err != nil && res == nil {
		return 0, fmt.Errorf("trace: fuzz run failed: %w", err)
	}
	if sys.Check != nil {
		if cerr := sys.Check(res); cerr != nil {
			return 0, fmt.Errorf("trace: fuzz check failed: %w", cerr)
		}
	}
	if sys.Score != nil {
		return sys.Score(res), nil
	}
	return metric(res), nil
}

// runEpoch advances the climber by up to epochLen evaluations: the first
// evaluation scores a random initial prefix, later ones hill-climb by point
// mutations, reusing the candidate buffer instead of reallocating it.
func (c *climber) runEpoch(epochLen, nprocs int, factory Factory,
	metric func(res *sched.Result) float64, opts FuzzOpts) {

	for n := 0; n < epochLen && c.evals < c.quota && c.err == nil; n++ {
		if c.evals == 0 {
			for i := range c.best {
				c.best[i] = c.rng.IntN(nprocs)
			}
			c.bestScore, c.err = c.evaluate(c.best, nprocs, factory, metric, opts)
			c.evals++
			continue
		}
		copy(c.cand, c.best)
		nmut := 1 + c.rng.IntN(4)
		for j := 0; j < nmut; j++ {
			c.cand[c.rng.IntN(len(c.cand))] = c.rng.IntN(nprocs)
		}
		score, err := c.evaluate(c.cand, nprocs, factory, metric, opts)
		c.evals++
		if err != nil {
			c.err = err
			return
		}
		if score > c.bestScore {
			c.best, c.cand = c.cand, c.best
			c.bestScore = score
		}
	}
}

// Fuzz hill-climbs over schedule prefixes to maximize metric — an
// adversarial-scheduler search. A population of climbers (point mutations of
// each climber's best known prefix, evaluated on a fresh system under Replay
// with a split-seeded random fallback) runs in fixed-length epochs; at each
// epoch barrier the population's best prefix is shared, and climbers adopt
// it when it beats their own. Epochs are drained by a worker pool
// (opts.Workers), which parallelizes evaluation without entering the
// search's structure: for a fixed Seed the report is identical for any
// worker count. Protocol lower bounds come with adversary constructions;
// this is the mechanical stand-in: it finds schedules that maximize steps
// (livelock pressure on obstruction-free protocols), yields, or any other
// measurable damage.
func Fuzz(nprocs int, factory Factory,
	metric func(res *sched.Result) float64, opts FuzzOpts) (*FuzzReport, error) {

	if opts.Iterations <= 0 {
		opts.Iterations = 100
	}
	if opts.ScheduleLen <= 0 {
		opts.ScheduleLen = 64
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 1 << 20
	}
	pop := opts.Population
	if pop <= 0 {
		pop = 4
	}
	pop = min(pop, opts.Iterations)
	workers := ResolveWorkers(opts.Workers)

	climbers := make([]*climber, pop)
	for ci := range climbers {
		c := &climber{
			seed:  sched.SplitSeed(opts.Seed, int64(ci)),
			best:  make([]int, opts.ScheduleLen),
			cand:  make([]int, opts.ScheduleLen),
			quota: opts.Iterations / pop,
		}
		if ci < opts.Iterations%pop {
			c.quota++
		}
		c.rng = sched.NewRandom(c.seed)
		climbers[ci] = c
	}
	// Epoch length: enough barriers that good prefixes spread (≈4 sharing
	// rounds per search), at least one evaluation per epoch.
	epochLen := max(opts.Iterations/(pop*4), 1)

	for {
		remaining := false
		for _, c := range climbers {
			if c.evals < c.quota {
				remaining = true
			}
		}
		if !remaining {
			break
		}
		RunOnPool(workers, pop, func(ci int) {
			climbers[ci].runEpoch(epochLen, nprocs, factory, metric, opts)
		})
		// Deterministic error order: lowest climber index in this epoch.
		for _, c := range climbers {
			if c.err != nil {
				return nil, c.err
			}
		}
		// Best-sharing barrier: adopt the population best (ties break to the
		// lowest climber index) wherever it improves on a climber's own.
		bi := 0
		for ci, c := range climbers {
			if c.evals > 0 && c.bestScore > climbers[bi].bestScore {
				bi = ci
			}
		}
		for ci, c := range climbers {
			if ci != bi && climbers[bi].evals > 0 && climbers[bi].bestScore > c.bestScore {
				copy(c.best, climbers[bi].best)
				c.bestScore = climbers[bi].bestScore
			}
		}
	}

	rep := &FuzzReport{}
	best := climbers[0]
	for _, c := range climbers {
		rep.Evaluated += c.evals
		if c.bestScore > best.bestScore {
			best = c
		}
	}
	rep.BestSchedule = append([]int(nil), best.best...)
	rep.BestScore = best.bestScore
	return rep, nil
}
