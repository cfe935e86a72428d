// Command checkd is the model-checking daemon: one long-running process
// owning a durable job queue and a shared worker fleet, so many checks run
// as jobs instead of one process per check. Workers join exactly like
// distcheck workers (`distcheck -connect`); clients drive the job lifecycle
// with distcheck's daemon verbs
// (-submit/-status/-result/-cancel/-trace/-jobs).
//
// Usage:
//
//	checkd -listen :9470 -dir /var/lib/checkd        # serve, journal to disk
//	distcheck -connect host:9470 -workers 8          # join the fleet
//	distcheck -daemon host:9470 -submit -protocol kset -n 4 -k 3 -prune
//	checkd -listen :9470 -admin 127.0.0.1:9471       # + metrics/health/jobs/pprof
//	checkd -smoke                                    # loopback self-check
//
// Every submission is validated at the door (structured field errors come
// back in the rejection); queued and running jobs survive a daemon restart —
// running ones resume from their journaled wave-barrier snapshots, and
// determinism makes the resumed report identical.
//
// The first SIGINT or SIGTERM drains gracefully: running jobs merge what
// they have into partial reports, are journaled as interrupted and
// resumable, and the queue is persisted. A second signal forces exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"revisionist/internal/harness"
	"revisionist/internal/jobd"
	"revisionist/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "checkd:", err)
		if harness.IsUsage(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("checkd", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", ":9470", "TCP listen address for workers and clients")
		dir       = fs.String("dir", "", "journal directory: the job queue survives restarts (empty = in-memory only)")
		maxActive = fs.Int("max-active", 2, "jobs running concurrently on the shared fleet; the rest queue")
		maxQueued = fs.Int("max-queued", 0, "admission bound: jobs waiting for a slot before submissions get a retryable rejection (0 = default 1024, negative = unbounded)")
		syncMode  = fs.String("sync", "put", "journal durability: put (fsync per write), batch (group commit, acks deferred to the batch fsync), none (OS page cache only)")
		syncBatch = fs.Int("sync-batch", 0, "with -sync batch: commit after this many journal writes (0 = default 64)")
		syncDelay = fs.Duration("sync-delay", 0, "with -sync batch: commit at latest this long after the first uncommitted write (0 = default 5ms)")
		quiet     = fs.Bool("quiet", false, "suppress the operational log")
		admin     = fs.String("admin", "", "HTTP admin listen address serving /metrics, /healthz, /readyz, /jobs, /jobs/ID/trace and /debug/pprof (empty = disabled); with -smoke, switches to the observability self-check")
		logLevel  = fs.String("log-level", "info", "operational log level: debug, info, warn, error")
		smoke     = fs.Bool("smoke", false, "loopback self-check: daemon + two workers, three concurrent jobs byte-compared against single-process runs")
		chaos     = fs.Int64("chaos", 0, "with -smoke: run under a seeded fault schedule (worker crash, hang, flaky dials) instead of healthy workers")
		kill      = fs.Bool("kill", false, "with -smoke: kill -9 a real checkd child mid-job, restart it on the same journal, and byte-compare the resumed report")
	)
	if err := harness.ParseFlags(fs, args); err != nil {
		return err
	}
	if *maxActive < 1 {
		fs.Usage()
		return &harness.UsageError{Err: fmt.Errorf("-max-active must be >= 1, got %d", *maxActive)}
	}
	policy, err := syncPolicy(*syncMode, *syncBatch, *syncDelay)
	if err != nil {
		fs.Usage()
		return &harness.UsageError{Err: err}
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fs.Usage()
		return &harness.UsageError{Err: err}
	}
	if *smoke {
		modes := 0
		for _, on := range []bool{*chaos != 0, *kill, *admin != ""} {
			if on {
				modes++
			}
		}
		if modes > 1 {
			fs.Usage()
			return &harness.UsageError{Err: fmt.Errorf("-smoke takes at most one of -chaos, -kill and -admin")}
		}
		switch {
		case *chaos != 0:
			return chaosSmoke(out, *chaos)
		case *kill:
			return killSmoke(out)
		case *admin != "":
			return obsSmoke(out, *admin)
		}
		return smokeCheck(out)
	}
	if *chaos != 0 || *kill {
		fs.Usage()
		return &harness.UsageError{Err: fmt.Errorf("-chaos and -kill only apply to -smoke")}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()

	// The operational log is structured (slog, component-keyed, leveled by
	// -log-level); -quiet still silences it entirely. Metrics are always on
	// — a pure side channel, reports are byte-identical either way — and the
	// -admin listener decides whether they are exposed.
	var logger *slog.Logger
	if !*quiet {
		logger = obs.NewLogger(out, level)
	}
	reg := obs.NewRegistry()
	cfg := jobd.Config{
		Dir:       *dir,
		MaxActive: *maxActive,
		MaxQueued: *maxQueued,
		Sync:      policy,
		Resolve:   harness.Resolve,
		Validate:  harness.ValidateJob,
		Logf:      obs.Logf(logger, "jobd", slog.LevelInfo),
		Registry:  reg,
	}
	d, err := jobd.New(cfg)
	if err != nil {
		return err
	}

	if *admin != "" {
		adminAddr, stop, err := serveAdmin(d, *admin)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(out, "checkd: admin on http://%s (metrics, health, jobs, pprof)\n", adminAddr)
	}

	// First signal: graceful drain. Second: force exit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(out, "checkd: %v: draining running jobs into resumable state (signal again to force exit)\n", s)
		cancel()
		if _, ok := <-sig; ok {
			fmt.Fprintln(os.Stderr, "checkd: forced exit")
			os.Exit(1)
		}
	}()

	go d.Serve(ln)
	fmt.Fprintf(out, "checkd: serving on %s (journal: %s, max-active %d)\n", ln.Addr(), journalDesc(*dir), *maxActive)
	if err := d.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintln(out, "checkd: drained; queue persisted")
	return nil
}

// serveAdmin serves d's HTTP admin surface on addr and returns the bound
// address; stop shuts the server down.
func serveAdmin(d *jobd.Daemon, addr string) (bound net.Addr, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: d.AdminHandler(nil)}
	go srv.Serve(ln)
	return ln.Addr(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}, nil
}

// syncPolicy resolves the -sync flags into the queue's durability policy.
func syncPolicy(mode string, batch int, delay time.Duration) (jobd.SyncPolicy, error) {
	m, err := jobd.ParseSyncMode(mode)
	if err != nil {
		return jobd.SyncPolicy{}, err
	}
	if m != jobd.SyncBatch && (batch != 0 || delay != 0) {
		return jobd.SyncPolicy{}, fmt.Errorf("-sync-batch and -sync-delay only apply to -sync batch")
	}
	if batch < 0 || delay < 0 {
		return jobd.SyncPolicy{}, fmt.Errorf("-sync-batch and -sync-delay must not be negative, got %d and %v", batch, delay)
	}
	return jobd.SyncPolicy{Mode: m, BatchPuts: batch, BatchDelay: delay}, nil
}

func journalDesc(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}
