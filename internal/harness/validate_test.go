package harness_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"revisionist/internal/dist/wire"
	"revisionist/internal/harness"
	"revisionist/internal/protocol"
	"revisionist/internal/trace"
)

// TestValidateJobBoundaries pins the admission check of the job API on
// hostile and boundary submissions: every rejection is a structured
// *protocol.ValidationError naming the offending fields.
func TestValidateJobBoundaries(t *testing.T) {
	good := wire.Job{Protocol: "firstvalue", Params: protocol.Params{N: 3},
		Opts: trace.ExploreOpts{MaxDepth: 8, Engine: "seq"}}
	cases := []struct {
		name   string
		mut    func(j *wire.Job)
		fields []string // empty = must be accepted
	}{
		{"valid", func(j *wire.Job) {}, nil},
		{"n=0 takes the schema default", func(j *wire.Job) { j.Params.N = 0 }, nil},
		{"negative depth", func(j *wire.Job) { j.Opts.MaxDepth = -4 }, []string{"maxdepth"}},
		{"zero depth", func(j *wire.Job) { j.Opts.MaxDepth = 0 }, []string{"maxdepth"}},
		{"unknown protocol", func(j *wire.Job) { j.Protocol = "no-such-protocol" }, []string{"protocol"}},
		{"negative n", func(j *wire.Job) { j.Params.N = -2 }, []string{"n"}},
		{"n at the bound", func(j *wire.Job) { j.Params.N = protocol.MaxN }, nil},
		{"n above the bound", func(j *wire.Job) { j.Params.N = protocol.MaxN + 1 }, []string{"n"}},
		{"huge n", func(j *wire.Job) { j.Params.N = 1 << 40 }, []string{"n"}},
		{"symmetry without prune", func(j *wire.Job) { j.Opts.Symmetry = true }, []string{"symmetry"}},
		{"prune off the seq engine", func(j *wire.Job) {
			j.Opts.Prune = true
			j.Opts.Engine = "goroutine"
		}, []string{"engine"}},
		{"negative budgets", func(j *wire.Job) {
			j.Opts.MaxRuns = -1
			j.Opts.MaxViolations = -1
			j.Opts.Workers = -1
		}, []string{"maxruns", "maxviolations", "workers"}},
		{"bad engine", func(j *wire.Job) { j.Opts.Engine = "quantum" }, []string{"engine"}},
		{"everything wrong at once", func(j *wire.Job) {
			j.Protocol = "nope"
			j.Opts.MaxDepth = -1
			j.Opts.Symmetry = true
		}, []string{"protocol", "maxdepth", "symmetry"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			job := good
			c.mut(&job)
			norm, err := harness.ValidateJob(job)
			if len(c.fields) == 0 {
				if err != nil {
					t.Fatalf("valid job rejected: %v", err)
				}
				if norm.Params.N <= 0 {
					t.Fatalf("normalized job lost its parameters: %+v", norm.Params)
				}
				return
			}
			if err == nil {
				t.Fatalf("hostile job accepted: %+v", job)
			}
			var ve *protocol.ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("unstructured rejection: %v", err)
			}
			got := map[string]bool{}
			for _, f := range ve.Fields {
				got[f.Field] = true
			}
			for _, want := range c.fields {
				if !got[want] {
					t.Errorf("rejection %q misses field %q", err, want)
				}
			}
		})
	}
}

// FuzzValidateJob fuzzes job admission: a rejected job must name its
// offending fields in a *protocol.ValidationError, and an accepted one must
// resolve and explore (cut to a tiny depth and run budget on one worker)
// without error.
func FuzzValidateJob(f *testing.F) {
	for _, pr := range protocol.Protocols() {
		f.Add(pr.Name, 0, 0, 0, 0.0, 4, 0, 0, true, true, "", 0)
	}
	f.Add("kset", 4, 3, 0, 0.0, 8, 100, 2, true, false, "seq", 3)
	f.Add("lane-kset", protocol.MaxN, 9, 4, 0.0, 2, 0, 0, false, false, "seq", 0)
	f.Add("firstvalue", protocol.MaxN+1, 0, 0, 0.0, 8, 0, 0, false, true, "goroutine", 10)
	f.Add("aa2", 2, 0, 0, 1e-300, -1, -1, -1, false, false, "", -1)
	f.Fuzz(func(t *testing.T, name string, n, k, x int, eps float64, depth, maxRuns, workers int,
		prune, symmetry bool, engine string, priority int) {
		job := wire.Job{Protocol: name, Params: protocol.Params{N: n, K: k, X: x, Eps: eps}, Priority: priority,
			Opts: trace.ExploreOpts{MaxDepth: depth, MaxRuns: maxRuns, Workers: workers, Prune: prune, Symmetry: symmetry, Engine: engine}}
		norm, err := harness.ValidateJob(job)
		if err != nil {
			var ve *protocol.ValidationError
			if !errors.As(err, &ve) || len(ve.Fields) == 0 {
				t.Fatalf("rejection without field errors: %v", err)
			}
			return
		}
		nprocs, factory, err := harness.Resolve(norm)
		if err != nil {
			t.Fatalf("admitted job does not resolve: %v", err)
		}
		norm.Opts.MaxDepth, norm.Opts.MaxRuns, norm.Opts.Workers = min(norm.Opts.MaxDepth, 3), 20, 1
		if _, err := trace.Explore(nprocs, factory, norm.Opts); err != nil {
			t.Fatalf("admitted job %+v fails to explore: %v", norm, err)
		}
	})
}

// TestValidateJobEngineCompat pins the compatibility field
// wire.Job.Opts.Engine: there is one engine, recorded as "seq". A job naming
// it, or naming none, is admitted; any other name, the retired "goroutine"
// included, is a structured field error on engine.
func TestValidateJobEngineCompat(t *testing.T) {
	cases := []struct {
		name string
		opts string // the job's Opts as submitted
		ok   bool
	}{
		{"field absent", `{"MaxDepth":8}`, true},
		{"empty", `{"MaxDepth":8,"Engine":""}`, true},
		{"seq", `{"MaxDepth":8,"Engine":"seq"}`, true},
		{"goroutine", `{"MaxDepth":8,"Engine":"goroutine"}`, false},
		{"unknown", `{"MaxDepth":8,"Engine":"x"}`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var job wire.Job
			if err := json.Unmarshal([]byte(`{"Protocol":"firstvalue","Opts":`+c.opts+`}`), &job); err != nil {
				t.Fatal(err)
			}
			_, err := harness.ValidateJob(job)
			if c.ok {
				if err != nil {
					t.Fatalf("job rejected: %v", err)
				}
				return
			}
			var ve *protocol.ValidationError
			if !errors.As(err, &ve) || len(ve.Fields) != 1 || ve.Fields[0].Field != "engine" {
				t.Fatalf("want one field error on engine, got %v", err)
			}
		})
	}
}

// TestValidateJobDecodesCheckpointField pins journal compatibility: jobs
// written before subtree checkpointing was folded into prune carry a
// "Checkpoint" option. Such a job must still decode and validate to the same
// normalized job, minus the field, so old journals reopen.
func TestValidateJobDecodesCheckpointField(t *testing.T) {
	const old = `{"ID":"j0003","Protocol":"kset","Params":{"N":4,"K":3,"X":0,"Eps":0},"Opts":{"MaxDepth":12,"MaxRuns":200000,"MaxViolations":3,"Engine":"seq","Workers":0,"Prune":true,"Symmetry":true,"Checkpoint":true}}`
	const want = `{"ID":"j0003","Protocol":"kset","Params":{"N":4,"K":3,"X":0,"Eps":0},"Opts":{"MaxDepth":12,"MaxRuns":200000,"MaxViolations":3,"Engine":"seq","Workers":0,"Prune":true,"Symmetry":true}}`
	var job wire.Job
	if err := json.Unmarshal([]byte(old), &job); err != nil {
		t.Fatal(err)
	}
	norm, err := harness.ValidateJob(job)
	if err != nil {
		t.Fatalf("old job rejected: %v", err)
	}
	got, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("normalized job changed:\ngot  %s\nwant %s", got, want)
	}
}

// TestCheckOutcomeTypedErrors pins the typed outcomes mains map to exit
// codes: violations found, interrupted (wrapping trace.ErrInterrupted), and
// their stable renderings.
func TestCheckOutcomeTypedErrors(t *testing.T) {
	pr, err := protocol.Lookup("firstvalue")
	if err != nil {
		t.Fatal(err)
	}
	rep := &harness.CheckReport{Protocol: pr, Params: protocol.Params{N: 2},
		Explore: &trace.ExploreReport{Runs: 5, Violations: []trace.Violation{
			{Schedule: []int{0, 1}, Err: errors.New("disagreement")},
		}}}
	var buf bytes.Buffer
	err = harness.CheckOutcome(&buf, rep, nil, 8, false, false, nil)
	var viol *harness.ViolationsError
	if !errors.As(err, &viol) || viol.N != 1 {
		t.Fatalf("want *ViolationsError{N:1}, got %v", err)
	}
	if err.Error() != "1 violating schedule(s) found" {
		t.Fatalf("rendering changed: %q", err.Error())
	}

	clean := &harness.CheckReport{Protocol: pr, Params: protocol.Params{N: 2},
		Explore: &trace.ExploreReport{Runs: 5}}
	buf.Reset()
	err = harness.CheckOutcome(&buf, clean, trace.ErrInterrupted, 8, false, false, nil)
	var intr *harness.InterruptedError
	if !errors.As(err, &intr) {
		t.Fatalf("want *InterruptedError, got %v", err)
	}
	if !errors.Is(err, trace.ErrInterrupted) {
		t.Fatal("InterruptedError does not unwrap to trace.ErrInterrupted")
	}
	if !strings.Contains(buf.String(), "interrupted: partial results follow") {
		t.Fatalf("interrupted banner missing:\n%s", buf.String())
	}

	buf.Reset()
	if err := harness.CheckOutcome(&buf, clean, nil, 8, false, false, nil); err != nil {
		t.Fatalf("clean check errored: %v", err)
	}
}
