package trace

import (
	"fmt"

	"revisionist/internal/sched"
)

// ReplayViolation re-executes one recorded Violation.Schedule against a
// fresh system built by factory and returns the check error the schedule
// reproduces. A nil violErr means the violation did not reproduce — which,
// for the deterministic systems Explore requires, indicates a
// nondeterministic factory or a schedule recorded from a different
// configuration. runErr reports an execution failure of the replay itself.
//
// Replaying with no fallback halts the run once the schedule is exhausted
// (remaining processes treated as crashed), which reproduces truncated
// exploration runs exactly: the explorer's strategy also halts at the depth
// bound. Replay is what makes parallel-found violations trustworthy: every
// schedule in an ExploreReport, whatever worker found it, can be re-run in
// isolation.
func ReplayViolation(nprocs int, factory Factory, v Violation) (violErr, runErr error) {
	eng := sched.NewSeqEngine(nprocs, sched.Replay{Choices: v.Schedule})
	sys := factory(eng)
	res, err := eng.RunMachines(sys.Machines)
	if err != nil {
		return nil, fmt.Errorf("trace: replay failed on schedule %v: %w", v.Schedule, err)
	}
	return sys.Check(res), nil
}
