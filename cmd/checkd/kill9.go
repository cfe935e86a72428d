package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"revisionist/internal/dist"
	"revisionist/internal/dist/chaos"
	"revisionist/internal/harness"
	"revisionist/internal/jobd"
	"revisionist/internal/protocol"
)

// killViolCase is a pruned check whose violations span several waves and
// whose violation cutoff lands past the first: the snapshot a kill leaves
// holds outcomes with violations, which the restart restores and merges.
var killViolCase = harness.Options{Protocol: "firstvalue-consensus", Params: protocol.Params{N: 4},
	MaxDepth: 12, MaxViolations: 1300, Prune: true}

// killSmoke is the `make crash-smoke` hard-kill leg: a real checkd child
// process is SIGKILLed mid-job — no drain, no deferred cleanup, the closest
// in-tree stand-in for a power cut — then restarted on the same journal. Two
// jobs run at once, a clean one and a violating one, and the kill waits
// until both are mid-run past a wave-barrier snapshot. The smoke passes only
// if the restarted daemon resumes each from its journaled snapshot (its log
// proves restored > 0) and each finished report renders byte-identical to
// an uninterrupted single-process run, the violating one with a witness
// that lists every violation.
func killSmoke(out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "checkd-kill-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cases := []harness.Options{ksetCase, killViolCase}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	defer wg.Wait()

	// Incarnation 1, with a paced worker: every worker frame is delayed so
	// wave barriers pass slowly enough to catch the job genuinely mid-run.
	child1, err := startChild(exec.Command(self, "-listen", "127.0.0.1:0", "-dir", dir))
	if err != nil {
		return err
	}
	defer child1.stop(syscall.SIGKILL)
	fmt.Fprintf(out, "smoke: child daemon on %s (journal %s)\n", child1.addr, dir)
	launch(ctx, &wg, child1.addr, dialWorker(dist.WorkConfig{Slots: 2}, &chaos.Script{WriteDelay: 3 * time.Millisecond}))
	cl, err := jobd.Dial(child1.addr)
	if err != nil {
		return err
	}
	ids, err := submit(cl, cases)
	if err != nil {
		cl.Close()
		return err
	}
	// Pull the plug only after every job has a wave-barrier snapshot in the
	// journal and is still running: the restart must have a genuine mid-run
	// frontier to resume for each. The daemon reports the snapshot's wave in
	// the same loop action that appends its delta, so once Status shows it
	// the bytes are in the page cache, which a SIGKILL does not lose.
	deadline := time.Now().Add(60 * time.Second)
	for snapshotted := 0; snapshotted < len(ids); {
		snapshotted = 0
		for _, id := range ids {
			info, err := cl.Status(id)
			if err != nil {
				cl.Close()
				return err
			}
			if jobd.JobState(info.State) == jobd.StateDone {
				cl.Close()
				return fmt.Errorf("job %s finished before the kill: no mid-run snapshot to resume", id)
			}
			if info.Wave > 0 {
				snapshotted++
			}
		}
		if snapshotted < len(ids) && time.Now().After(deadline) {
			cl.Close()
			return fmt.Errorf("a job had no progress snapshot in the journal before the kill deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cl.Close()
	child1.stop(syscall.SIGKILL)
	fmt.Fprintf(out, "smoke: SIGKILL delivered mid-job (jobs %s)\n", strings.Join(ids, ", "))

	// Incarnation 2, same journal, fast worker: recovery must re-queue the
	// killed job with its snapshot and resume only the unfinished frontier.
	child2, err := startChild(exec.Command(self, "-listen", "127.0.0.1:0", "-dir", dir))
	if err != nil {
		return err
	}
	defer child2.stop(syscall.SIGKILL)
	launch(ctx, &wg, child2.addr, dialWorker(dist.WorkConfig{Slots: 2}, nil))
	cl2, err := jobd.Dial(child2.addr)
	if err != nil {
		return err
	}
	defer cl2.Close()
	if err := verify(out, cl2, ids, cases, "resumed"); err != nil {
		return err
	}
	for _, id := range ids {
		resumed := false
		for _, l := range child2.logLines() {
			if strings.Contains(l, "job "+id+": resuming (") && !strings.Contains(l, "resuming (0/") {
				resumed = true
			}
		}
		if !resumed {
			return fmt.Errorf("restarted daemon never logged a non-empty resume of job %s; its log: %q", id, child2.logLines())
		}
	}
	fmt.Fprintln(out, "smoke: restart resumed every snapshot; reports and witness byte-identical to uninterrupted runs")

	// Orderly exit for the survivor: one SIGTERM drains and persists.
	child2.stop(syscall.SIGTERM)
	return nil
}

// child is one checkd incarnation run as a real subprocess.
type child struct {
	cmd  *exec.Cmd
	addr string

	mu    sync.Mutex
	lines []string
	dead  bool
}

// startChild starts cmd, one checkd serving an ephemeral port, and waits
// for its "serving on" line to learn the address. A child that exits first
// fails at once, with its log.
func startChild(cmd *exec.Cmd) (*child, error) {
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd}
	ready := make(chan string, 1)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.lines = append(c.lines, line)
			c.mu.Unlock()
			if _, after, ok := strings.Cut(line, "serving on "); ok {
				if addr, _, ok := strings.Cut(after, " "); ok {
					select {
					case ready <- addr:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-ready:
		c.addr = addr
		return c, nil
	case <-closed:
		c.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("child daemon exited before announcing its address (%v); log: %q", cmd.ProcessState, c.logLines())
	case <-time.After(30 * time.Second):
		c.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("child daemon never announced its address; log: %q", c.logLines())
	}
}

func (c *child) logLines() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines...)
}

// stop delivers sig — SIGKILL is the power cut, SIGTERM the graceful
// drain — and reaps the process; only the first call signals.
func (c *child) stop(sig os.Signal) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.mu.Unlock()
	c.cmd.Process.Signal(sig)
	c.cmd.Wait()
}
