package harness

import (
	"errors"
	"fmt"

	"revisionist/internal/dist/wire"
	"revisionist/internal/protocol"
	"revisionist/internal/sched"
)

// ValidateJob is the admission check of the job-lifecycle API: it validates a
// wire job exactly as the local Check verb would resolve it — registry
// lookup, parameter defaulting and schema/protocol validation, exploration
// option sanity — and returns the normalized job (parameters resolved to
// their final values) or a *protocol.ValidationError naming every offending
// field. A daemon runs it before queueing anything, so a hostile or stale
// submission is rejected at the door with structured field errors instead of
// failing deep inside a worker fleet.
func ValidateJob(job wire.Job) (wire.Job, error) {
	var ve protocol.ValidationError
	pr, err := protocol.Lookup(job.Protocol)
	if err != nil {
		ve.Add("protocol", job.Protocol, fmt.Sprintf("unknown protocol (have %v)", protocol.Names()))
	} else {
		p, err := pr.Resolve(job.Params)
		if err != nil {
			var pve *protocol.ValidationError
			if errors.As(err, &pve) {
				ve.Fields = append(ve.Fields, pve.Fields...)
			} else {
				ve.Add("params", fmt.Sprintf("%+v", job.Params), err.Error())
			}
		} else {
			job.Params = p
		}
	}

	if job.Priority < 0 || job.Priority > 9 {
		ve.Add("priority", job.Priority, "fair-share priority must be 0 (default) or 1..9")
	}

	o := &job.Opts
	if o.MaxDepth < 1 {
		ve.Add("maxdepth", o.MaxDepth, "exploration depth must be at least 1")
	}
	if o.MaxRuns < 0 {
		ve.Add("maxruns", o.MaxRuns, "run budget must be >= 0 (0 = unlimited)")
	}
	if o.MaxViolations < 0 {
		ve.Add("maxviolations", o.MaxViolations, "violation budget must be >= 0 (0 = default)")
	}
	if o.Workers < 0 {
		ve.Add("workers", o.Workers, "worker-pool size must be >= 0 (0 = GOMAXPROCS)")
	}
	if err := sched.CheckEngine(o.Engine); err != nil {
		ve.Add("engine", o.Engine, err.Error())
	}
	if o.Symmetry && !o.Prune {
		ve.Add("symmetry", o.Symmetry, "symmetry reduction is a property of the visited-state cache: it requires prune")
	}
	if err := ve.OrNil(); err != nil {
		return job, fmt.Errorf("harness: invalid job: %w", err)
	}
	return job, nil
}
