package harness_test

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"revisionist/internal/dist/wire"
	"revisionist/internal/harness"
	"revisionist/internal/protocol"
)

// falsificationWitness is the witness modelcheck -witness writes for the
// falsification golden (firstvalue-consensus, n=2, depth 12), with the
// given engine field.
func falsificationWitness(engine string) []byte {
	const err = "spec: 1-set agreement agreement violated: 2 distinct outputs [100 101]"
	w := wire.Witness{Protocol: "firstvalue-consensus", Params: protocol.Params{N: 2},
		Engine: engine, MaxDepth: 12, Violations: []wire.Violation{
			{Schedule: []int{0, 1, 0, 0, 1, 1}, Err: err},
			{Schedule: []int{0, 1, 1, 1, 0, 0}, Err: err},
			{Schedule: []int{1, 0, 0, 0, 1, 1}, Err: err},
		}}
	data, _ := json.MarshalIndent(&w, "", "  ")
	return data
}

// TestReplayWitnessEngineCompat: a witness naming the one engine, or none,
// replays; one naming the retired goroutine engine is a usage error.
func TestReplayWitnessEngineCompat(t *testing.T) {
	for _, c := range []struct {
		engine string
		usage  bool
	}{{"", false}, {"seq", false}, {"goroutine", true}} {
		path := filepath.Join(t.TempDir(), "witness.json")
		if err := os.WriteFile(path, falsificationWitness(c.engine), 0o644); err != nil {
			t.Fatal(err)
		}
		err := harness.ReplayWitness(io.Discard, path)
		if c.usage != harness.IsUsage(err) || (!c.usage && err != nil) {
			t.Fatalf("Engine %q: got %v", c.engine, err)
		}
	}
}

// FuzzWitness: no witness file may panic the replay path. Every rejection is
// a decode error, a usage error (unknown engine, protocol or parameters), or
// a replay mismatch (a schedule that fails to run or does not reproduce its
// violation); a process panic during replay is a failure even though the
// engine recovers it.
func FuzzWitness(f *testing.F) {
	for _, engine := range []string{"", "seq", "goroutine"} {
		f.Add(falsificationWitness(engine))
	}
	f.Add([]byte(`{"Protocol":"kset","Params":{"N":4,"K":3},"Violations":[{"Schedule":[3,3,9,-1]}]}`))
	f.Add([]byte(`{"Protocol":"nope","Violations":null}`))
	f.Add([]byte(`{"Engine":7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "witness.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := harness.ReplayWitness(io.Discard, path)
		if err == nil || harness.IsUsage(err) {
			return
		}
		var syntax *json.SyntaxError
		var typ *json.UnmarshalTypeError
		if errors.As(err, &syntax) || errors.As(err, &typ) {
			return
		}
		msg := err.Error()
		if strings.Contains(msg, "panicked") {
			t.Fatalf("a process panicked during replay: %v", err)
		}
		if !strings.Contains(msg, "did not reproduce") && !strings.Contains(msg, "replay failed") {
			t.Fatalf("unclassified rejection: %v", err)
		}
	})
}
