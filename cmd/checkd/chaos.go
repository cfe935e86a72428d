package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"revisionist/internal/dist"
	"revisionist/internal/dist/chaos"
	"revisionist/internal/harness"
	"revisionist/internal/jobd"
)

// chaosSmoke is the `make chaos-smoke` payload: the loopback scenario run
// under a seeded fault schedule. Three TCP workers join the daemon, each
// carrying one of the fault model's scenarios — one crashes mid-search and
// reconnects, one hangs silently until the fleet's heartbeat detector
// retires it, one needs several dial attempts before its connection lands —
// and every job's fetched report must still render byte-identically to its
// single-process run. The whole schedule (crash frame, hang frame, flaky
// dial count) derives from the seed, so a failure reproduces with the same
// -chaos value.
func chaosSmoke(out io.Writer, seed int64) error {
	plan := chaos.NewPlan(seed)
	crash := plan.Crash()
	hang := plan.Hang()
	flaky := plan.FlakyDials()
	backoff := dist.Backoff{Base: 10 * time.Millisecond, Seed: seed}
	// redial is a worker whose dials go through d and whose loop re-dials
	// and re-registers whenever its connection dies.
	redial := func(d *chaos.Dialer) worker {
		return func(ctx context.Context, addr string) {
			d.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
			dist.WorkerLoop(ctx, d.DialConn, dist.WorkConfig{Slots: 2}, harness.Resolve, backoff)
		}
	}

	l, err := startLoopback(jobd.Config{
		MaxActive: len(smokeCases),
		// Fast failure detection so the hung worker is retired in tens of
		// milliseconds instead of the production seconds.
		Liveness: dist.Liveness{HeartbeatEvery: 25 * time.Millisecond, HeartbeatMiss: 3},
	},
		// Worker 1 crashes after a few frames, then its loop re-dials and
		// re-registers; the coordinator re-leases whatever the dead
		// incarnation held.
		redial(&chaos.Dialer{Script: func(i int) chaos.Script {
			if i == 0 {
				return crash
			}
			return chaos.Script{}
		}}),
		// Worker 2 hangs silently: the socket stays open but nothing more is
		// ever sent, the failure only heartbeats can see.
		dialWorker(dist.WorkConfig{Slots: 1}, &hang),
		// Worker 3's dials flake a few times before one lands; DialRetry's
		// backoff absorbs them.
		redial(&chaos.Dialer{FailFirst: flaky}),
	)
	if err != nil {
		return err
	}
	defer l.stop()

	fmt.Fprintf(out, "chaos-smoke: seed %d on %s: 1 crash+reconnect, 1 silent hang, %d flaky dial(s)\n",
		seed, l.addr, flaky)
	if _, err := l.check(out, smokeCases); err != nil {
		return fmt.Errorf("chaos seed %d: %w", seed, err)
	}
	fmt.Fprintf(out, "chaos-smoke: %d job reports byte-identical to single-process runs despite injected faults\n", len(smokeCases))
	return nil
}
