// Package dist is the distributed schedule search: it drives the wave
// protocol of the in-process explorer (trace.Waves) across a transport
// boundary, from leased subtrees whose outcomes arrive in any order.
//
// A coordinator probes the first DFS decision levels of the schedule tree
// into a canonical frontier of disjoint subtree prefixes (trace.SubtreePlan),
// leases prefixes to workers over any net.Listener transport — an in-process
// pipe in tests (ListenPipe), length-prefixed JSON over TCP between machines
// — and adds the per-subtree outcomes to the job's trace.Waves, whose merge
// is the exact report the single-process trace.Explore produces: violations
// in canonical schedule order, Runs/Truncated/Exhausted/Pruned/Distinct
// identical, MaxRuns and MaxViolations re-cut at the exact run ordinal.
//
// Since wire version 3 the coordinator state is split in two layers: a Fleet
// owns the worker population and multiplexes any number of concurrent job
// sessions over it, and each session embeds the trace.Waves that makes one
// job's report deterministic — its canonical waves, its merged visited-state
// table, its frozen budget bases — next to its lease bookkeeping. Leases,
// results and failures are job-tagged on the wire; workers keep one mirror
// table per announced job and drop it on retire. Because a lease is a pure
// function of (wave state, subtree id), sharing a fleet cannot change any
// job's merged report. Serve remains the one-job convenience wrapper over a
// private fleet.
//
// Pruned searches share visited-state closures the same way the in-process
// pruned explorer does: the frontier is processed in canonical waves of
// fixed width, workers prune against their mirror of the session's table
// frozen as of the wave start, and each subtree's new closures are published
// back in its Result and max-merged at the wave barrier. Because closure
// entries are a join semilattice (keep the larger remaining depth), the
// merged table — and therefore the report — is independent of worker count,
// arrival order and lease placement.
//
// Failure handling: a worker that disconnects forfeits its outstanding
// leases, which return to the pending queue and are re-leased. Workers only
// report complete subtree outcomes, and a subtree outcome is a pure function
// of (root, options, frozen table, budget base) — all wave-determined — so
// re-execution is idempotent: no violation is duplicated or lost, whichever
// worker finally completes the subtree.
package dist

import (
	"context"
	"net"

	"revisionist/internal/dist/wire"
	"revisionist/internal/trace"
)

// Resolver turns a wire job into local exploration inputs. Coordinator and
// workers resolve the same job independently (typically from the protocol
// registry, see harness.Resolve), so only names and parameters cross the
// wire; determinism requires both sides to build identical systems.
type Resolver func(job wire.Job) (nprocs int, factory trace.Factory, err error)

// Serve runs one distributed exploration of job as the coordinator on ln,
// blocking until the search completes, every worker rejects the job, or ctx
// is cancelled — in which case the partial merged report is returned
// alongside trace.ErrInterrupted. Workers may connect, disconnect and
// reconnect at any time; the report is byte-identical to the single-process
// trace.Explore for any worker population. Serve closes ln before returning.
//
// Serve is the one-job convenience wrapper: it spins a private Fleet, starts
// a single session on it, and tears the fleet down when the session ends.
// Long-running processes (internal/jobd) run one shared Fleet instead.
func Serve(ctx context.Context, ln net.Listener, job wire.Job, resolve Resolver) (*trace.ExploreReport, error) {
	defer ln.Close()
	f := NewFleet(resolve)
	fctx, cancel := context.WithCancel(context.Background())
	fleetDone := make(chan struct{})
	go func() { defer close(fleetDone); f.Run(fctx) }()
	defer func() { <-fleetDone }() // registered before cancel: runs after it
	defer cancel()
	go f.ServeWorkers(ln)

	id := job.ID
	if id == "" {
		id = "job"
	}
	ch, err := f.Start(id, job)
	if err != nil {
		return nil, err
	}
	select {
	case r := <-ch:
		return r.Report, r.Err
	case <-ctx.Done():
		cancel() // interrupts the session: partial report + ErrInterrupted
		r := <-ch
		return r.Report, r.Err
	}
}
