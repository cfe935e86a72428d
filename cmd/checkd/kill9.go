package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
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

// killSmoke is the `make crash-smoke` hard-kill leg: a real checkd child
// process is SIGKILLed mid-job — no drain, no deferred cleanup, the closest
// in-tree stand-in for a power cut — then restarted on the same journal. The
// smoke passes only if the restarted daemon resumes from the journaled
// wave-barrier snapshot (its log proves restored > 0) and the finished
// report renders byte-identical to an uninterrupted single-process run.
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

	opts := harness.Options{Protocol: "kset", Params: protocol.Params{N: 4, K: 3},
		MaxDepth: 12, MaxViolations: 3, Prune: true, Symmetry: true}
	single, err := harness.Check(opts)
	if err != nil {
		return err
	}
	job, err := harness.CheckJob(opts)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	defer wg.Wait()

	// Incarnation 1, with a paced worker: every worker frame is delayed so
	// wave barriers pass slowly enough to catch the job genuinely mid-run.
	child1, err := startChild(self, dir)
	if err != nil {
		return err
	}
	defer child1.kill()
	fmt.Fprintf(out, "smoke: child daemon on %s (journal %s)\n", child1.addr, dir)
	pacedWorker(ctx, &wg, child1.addr, 3*time.Millisecond)
	cl, err := jobd.Dial(child1.addr)
	if err != nil {
		return err
	}
	ack, err := cl.Submit(job)
	if err != nil {
		return err
	}
	if ack.Err != "" {
		return fmt.Errorf("kill smoke submission rejected: %s", ack.Err)
	}
	// Pull the plug only after a wave-barrier snapshot reached the journal:
	// the restart must have a genuine mid-run frontier to resume. The daemon
	// reports the snapshot's wave in the same loop action that appends its
	// delta, so once Status shows it the bytes are in the page cache, which
	// a SIGKILL does not lose.
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, err := cl.Status(ack.ID)
		if err != nil {
			cl.Close()
			return err
		}
		if info.Wave > 0 {
			break
		}
		if time.Now().After(deadline) {
			cl.Close()
			return fmt.Errorf("no progress snapshot reached the journal before the kill deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cl.Close()
	child1.kill()
	fmt.Fprintf(out, "smoke: SIGKILL delivered mid-job (job %s)\n", ack.ID)

	// Incarnation 2, same journal, fast worker: recovery must re-queue the
	// killed job with its snapshot and resume only the unfinished frontier.
	child2, err := startChild(self, dir)
	if err != nil {
		return err
	}
	defer child2.kill()
	fastWorker(ctx, &wg, child2.addr)
	cl2, err := jobd.Dial(child2.addr)
	if err != nil {
		return err
	}
	defer cl2.Close()
	rep, err := awaitReport(cl2, ack.ID)
	if err != nil {
		return err
	}

	var want, got bytes.Buffer
	harness.WriteCheckReport(&want, single, opts.MaxDepth, opts.Prune, opts.Symmetry, nil)
	check := &harness.CheckReport{Protocol: single.Protocol, Params: rep.Job.Params, Explore: rep.Report.Explore()}
	harness.WriteCheckReport(&got, check, opts.MaxDepth, opts.Prune, opts.Symmetry, nil)
	out.Write(got.Bytes())
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		return fmt.Errorf("resumed report diverges from the uninterrupted run:\n--- single ---\n%s--- resumed ---\n%s",
			want.String(), got.String())
	}
	resumed := false
	for _, l := range child2.logLines() {
		if strings.Contains(l, "resuming (") && !strings.Contains(l, "resuming (0/") {
			resumed = true
		}
	}
	if !resumed {
		return fmt.Errorf("restarted daemon never logged a non-empty resume; its log: %q", child2.logLines())
	}
	fmt.Fprintln(out, "smoke: restart resumed the snapshot; report byte-identical to the uninterrupted run")

	// Orderly exit for the survivor: one SIGTERM drains and persists.
	child2.terminate()
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

// startChild execs one checkd serving an ephemeral port over the given
// journal dir and waits for its "serving on" line to learn the address.
func startChild(self, dir string) (*child, error) {
	cmd := exec.Command(self, "-listen", "127.0.0.1:0", "-dir", dir)
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
	go func() {
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
	case <-time.After(30 * time.Second):
		c.kill()
		return nil, fmt.Errorf("child daemon never announced its address; log: %q", c.logLines())
	}
}

func (c *child) logLines() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines...)
}

// kill delivers SIGKILL — the power cut — and reaps the process. Idempotent.
func (c *child) kill() {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.mu.Unlock()
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// terminate delivers one SIGTERM — the graceful drain — and reaps.
func (c *child) terminate() {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.mu.Unlock()
	c.cmd.Process.Signal(syscall.SIGTERM)
	c.cmd.Wait()
}

// pacedWorker joins addr's fleet with every outbound frame delayed, slowing
// wave barriers so a mid-run kill lands mid-run.
func pacedWorker(ctx context.Context, wg *sync.WaitGroup, addr string, delay time.Duration) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		dist.Work(ctx, chaos.WrapConn(conn, chaos.Script{WriteDelay: delay}), 2, harness.Resolve)
	}()
}

// fastWorker joins addr's fleet unthrottled.
func fastWorker(ctx context.Context, wg *sync.WaitGroup, addr string) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		dist.Work(ctx, conn, 2, harness.Resolve)
	}()
}
