package wire

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"revisionist/internal/dist/chaos"
	"revisionist/internal/protocol"
	"revisionist/internal/trace"
)

// sampleMsgs returns one message of every kind, the bodies filled in.
func sampleMsgs() []*Msg {
	return []*Msg{
		{Kind: KindHello, Hello: &Hello{Version: Version, Slots: 4}},
		{Kind: KindJob, Job: &Job{ID: "j0007", Protocol: "kset", Params: protocol.Params{N: 4, K: 3},
			Opts: trace.ExploreOpts{MaxDepth: 20, MaxRuns: 1000, Prune: true, Engine: "seq"}}},
		{Kind: KindLease, Lease: &Lease{Job: "j0007", ID: 7, Root: []int{0, 2, 1}, Base: 420, ViolBase: 2,
			Table: []trace.FpEntry{{Fp: 1 << 63, Rem: 9}, {Fp: 42, Rem: 1}}}},
		{Kind: KindResult, Result: &Result{Job: "j0007", ID: 7, Outcome: &trace.SubtreeOutcome{
			Runs: 12, Truncated: 3, Exhausted: true, Pruned: 2, Distinct: 5,
			Violations: []trace.SubtreeViolation{{Schedule: []int{0, 1, 0}, Err: "disagreement"}},
			Closures:   []trace.FpEntry{{Fp: 3, Rem: 2}},
		}}},
		{Kind: KindFail, Fail: &Fail{Job: "j0007", Err: "unknown protocol"}},
		{Kind: KindReject, Reject: &Reject{Got: 2, Want: 3, Err: "version skew"}},
		{Kind: KindRetire, Retire: &Retire{Job: "j0007"}},
		{Kind: KindSubmit, Submit: &Submit{Job: Job{Protocol: "firstvalue", Params: protocol.Params{N: 4},
			Opts: trace.ExploreOpts{MaxDepth: 14, Prune: true}}}},
		{Kind: KindAck, Ack: &Ack{ID: "j0008"}},
		{Kind: KindAck, Ack: &Ack{Err: "n=-1: must be positive",
			Fields: []protocol.FieldError{{Field: "n", Value: "-1", Msg: "must be positive"}}}},
		{Kind: KindStatus, Ref: &Ref{ID: "j0008"}},
		{Kind: KindInfo, Info: &JobInfo{ID: "j0008", Protocol: "firstvalue", Params: protocol.Params{N: 4},
			State: "running"}},
		{Kind: KindJobs, Jobs: []JobInfo{{ID: "j0007", State: "done", Runs: 99, Violations: 1}}},
		{Kind: KindReport, Report: &JobReport{
			Info: JobInfo{ID: "j0007", State: "done", Runs: 99, Violations: 1},
			Job:  Job{ID: "j0007", Protocol: "kset", Params: protocol.Params{N: 4, K: 3}},
			Report: &Report{Runs: 99, Truncated: 4, Exhausted: true, Pruned: 7, Distinct: 42,
				Violations: []Violation{{Schedule: []int{1, 0}, Err: "disagreement"}}},
			Witness: &Witness{Protocol: "kset", Params: protocol.Params{N: 4, K: 3}, Engine: "seq", MaxDepth: 20},
		}},
		{Kind: KindShutdown},
		{Kind: KindPing},
		{Kind: KindPong},
		{Kind: KindCancel, Ref: &Ref{ID: "j0008"}},
		{Kind: KindFetch, Ref: &Ref{ID: "j0007"}},
		{Kind: KindList},
		{Kind: KindJobs, Jobs: []JobInfo{{ID: "j0009", State: "queued", Priority: 7}},
			Queue: &QueueInfo{Queued: 1, MaxQueued: 64}},
		{Kind: KindTrace, Ref: &Ref{ID: "j0007"}},
		{Kind: KindEvents, Events: &Events{Job: "j0007", Dropped: 2, Events: []TraceEvent{
			{At: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC), Kind: "wave", Detail: "1/4"}}}},
	}
}

// TestFrameRoundTrip sends every message kind through the framing and
// requires it back intact.
func TestFrameRoundTrip(t *testing.T) {
	msgs := sampleMsgs()
	var buf bytes.Buffer
	c := NewConn(&buf)
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			t.Fatalf("send %s: %v", m.Kind, err)
		}
	}
	for _, want := range msgs {
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round trip of %s diverged:\nsent %+v\ngot  %+v", want.Kind, want, got)
		}
	}
}

// TestFrameCap rejects oversized frames on both sides instead of allocating.
func TestFrameCap(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := NewConn(&buf).Recv(); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestInterruptedNeverCrossesTheWire pins the json:"-" contract: the local
// Interrupted closure must not break (or leak into) the job encoding.
func TestInterruptedNeverCrossesTheWire(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	job := &Job{Protocol: "consensus", Opts: trace.ExploreOpts{
		MaxDepth:    8,
		Interrupted: func() bool { return true },
	}}
	errc := make(chan error, 1)
	go func() { errc <- NewConn(client).Send(&Msg{Kind: KindJob, Job: job}) }()
	got, err := NewConn(server).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got.Job.Opts.Interrupted != nil {
		t.Fatal("Interrupted closure crossed the wire")
	}
}

// TestReportRoundTrip pins ReportOf/Explore: counters verbatim, violations
// flattened to messages and reconstructed rendering-equal.
func TestReportRoundTrip(t *testing.T) {
	rep := &trace.ExploreReport{
		Runs: 120, Truncated: 17, Exhausted: true, Pruned: 5, Distinct: 33,
		Violations: []trace.Violation{{Schedule: []int{0, 1, 1}, Err: errString("disagreement")}},
	}
	got := ReportOf(rep).Explore()
	if got.Runs != rep.Runs || got.Truncated != rep.Truncated || got.Exhausted != rep.Exhausted ||
		got.Pruned != rep.Pruned || got.Distinct != rep.Distinct || len(got.Violations) != 1 {
		t.Fatalf("round trip diverged: %+v vs %+v", rep, got)
	}
	if got.Violations[0].Err.Error() != "disagreement" {
		t.Fatalf("violation error lost: %v", got.Violations[0].Err)
	}
}

// TestWitnessOf flattens trace violations to their wire form.
func TestWitnessOf(t *testing.T) {
	w := WitnessOf("firstvalue-consensus", protocol.Params{N: 2}, "seq", 12,
		[]trace.Violation{{Schedule: []int{0, 0, 1}, Err: errString("boom")}})
	if len(w.Violations) != 1 || w.Violations[0].Err != "boom" ||
		len(w.Violations[0].Schedule) != 3 {
		t.Fatalf("bad witness: %+v", w)
	}
}

type errString string

func (e errString) Error() string { return string(e) }

// tornRecv runs one scripted send against a Recv and returns Recv's error.
func tornRecv(t *testing.T, script chaos.Script) error {
	t.Helper()
	client, server := net.Pipe()
	defer server.Close()
	sender := chaos.WrapConn(client, script)
	defer sender.Close()
	go NewConn(sender).Send(&Msg{Kind: KindShutdown})
	_, err := NewConn(server).Recv()
	if err == nil {
		t.Fatal("torn frame accepted")
	}
	return err
}

// TestTornFrameBody pins the descriptive error for a frame cut off mid-body
// (the chaos conn truncates the sender's second write — the body — and
// closes): the reader must name the torn frame and the byte counts, not
// surface a bare unexpected EOF.
func TestTornFrameBody(t *testing.T) {
	err := tornRecv(t, chaos.Script{TruncateWrite: 2})
	if !strings.Contains(err.Error(), "wire: torn frame:") ||
		!strings.Contains(err.Error(), "body bytes") {
		t.Fatalf("torn body error lacks diagnosis: %v", err)
	}
}

// TestTornFrameHeader pins the short-header diagnosis: the length prefix
// itself was cut (2 of its 4 bytes arrive before the close).
func TestTornFrameHeader(t *testing.T) {
	err := tornRecv(t, chaos.Script{TruncateWrite: 1})
	if !strings.Contains(err.Error(), "wire: torn frame header: 2 of 4 bytes") {
		t.Fatalf("torn header error lacks diagnosis: %v", err)
	}
}

// TestCleanEOFIsNotTorn: a connection closed exactly between frames is an
// orderly EOF, not a torn frame — retry loops distinguish the two.
func TestCleanEOFIsNotTorn(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go client.Close()
	_, err := NewConn(server).Recv()
	if err == nil || strings.Contains(err.Error(), "torn") {
		t.Fatalf("clean close misdiagnosed: %v", err)
	}
}

// TestFrameCapMessage pins the oversized-frame diagnosis on the read side.
func TestFrameCapMessage(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	_, err := NewConn(&buf).Recv()
	if err == nil || !strings.Contains(err.Error(), "exceeds the 67108864-byte cap") {
		t.Fatalf("oversized frame error lacks diagnosis: %v", err)
	}
}

// TestRecvTimeout: with a read timeout armed, a peer that opens a frame and
// stalls forever trips the deadline instead of pinning the reader.
func TestRecvTimeout(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	defer client.Close()
	// Send only a header promising 100 bytes, then go silent.
	go client.Write([]byte{0, 0, 0, 100})
	c := NewConn(server)
	c.SetTimeouts(50*time.Millisecond, 0)
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stalled frame accepted")
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("expected a timeout, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv ignored its read deadline")
	}
}
