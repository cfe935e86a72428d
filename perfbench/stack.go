package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"revisionist/internal/dist"
	"revisionist/internal/harness"
	"revisionist/internal/jobd"
	"revisionist/internal/obs"
	"revisionist/internal/trace"
)

// stack is checkd's service stack in one process, configured the way
// cmd/checkd configures it: a daemon with an on-disk journal under the
// default fsync-per-put policy, MaxActive 2 and a metrics registry; one TCP
// worker with 2 slots feeding the search series into the same registry;
// and one client connection.
type stack struct {
	dir    string
	reg    *obs.Registry
	ln     net.Listener
	cl     *jobd.Client
	cancel context.CancelFunc
	ran    chan error
	worked chan struct{} // nil until the worker starts

	// Counting wrappers around the client's and the worker's connection;
	// nil when untraced.
	clientConn, workerConn *countConn
}

// up brings the stack up until the first job can be submitted: journal
// open, daemon New and Run, the worker handshake until the fleet shows its
// 2 slots, and the client dial. With tr set, the resolver, the admission
// check and both connections go through the tracer's seams.
func up(base string, tr *tracer) (*stack, error) {
	dir, err := os.MkdirTemp(base, "journal-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, reg: obs.NewRegistry(), ran: make(chan error, 1)}
	resolve, validate := dist.Resolver(harness.Resolve), harness.ValidateJob
	if tr != nil {
		resolve, validate = tr.resolver(resolve), tr.validate(validate)
	}
	d, err := jobd.New(jobd.Config{Dir: dir, MaxActive: 2, Resolve: resolve, Validate: validate, Registry: s.reg})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() { s.ran <- d.Run(ctx) }()
	go d.Serve(s.ln)

	addr := s.ln.Addr().String()
	wc, err := net.Dial("tcp", addr)
	if err != nil {
		s.down()
		return nil, err
	}
	if tr != nil {
		s.workerConn = newCountConn(wc)
		wc = s.workerConn
	}
	s.worked = make(chan struct{})
	go func() {
		defer close(s.worked)
		dist.WorkCfg(ctx, wc, dist.WorkConfig{Slots: 2, Obs: trace.NewSearchObs(s.reg)}, resolve)
	}()
	// Spin rather than sleep: a short sleep can oversleep by a timer tick,
	// which would swamp the handshake being timed.
	for deadline := time.Now().Add(10 * time.Second); d.Stats().Slots < 2; runtime.Gosched() {
		if time.Now().After(deadline) {
			s.down()
			return nil, fmt.Errorf("worker did not join the fleet")
		}
	}
	cc, err := net.Dial("tcp", addr)
	if err != nil {
		s.down()
		return nil, err
	}
	if tr != nil {
		s.clientConn = newCountConn(cc)
		cc = s.clientConn
	}
	s.cl = jobd.NewClient(cc)
	return s, nil
}

// down stops the client, the daemon (a graceful drain) and the worker,
// waits for all of them, and removes the journal.
func (s *stack) down() error {
	if s.cl != nil {
		s.cl.Close()
	}
	s.cancel()
	err := <-s.ran
	s.ln.Close()
	if s.worked != nil {
		<-s.worked
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// setupTimes brings a stack up and down n times and returns each bring-up's
// duration in seconds.
func setupTimes(base string, n int) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		s, err := up(base, nil)
		if err != nil {
			return nil, err
		}
		out[i] = time.Since(t0).Seconds()
		if err := s.down(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
