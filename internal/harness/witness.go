// Violation witness files: a Check run's violating schedules serialized as a
// wire.Witness JSON document — the wire format's first on-disk consumer. A
// witness is self-contained (protocol name, resolved parameters), so
// a schedule found by one machine, or by a distributed fleet, replays
// anywhere the binary runs.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"revisionist/internal/dist/wire"
	"revisionist/internal/sched"
	"revisionist/internal/trace"
)

// WriteWitness serializes rep's violating schedules (possibly none — a clean
// witness records a clean check) to path.
func WriteWitness(path string, rep *CheckReport, maxDepth int) error {
	w := wire.WitnessOf(rep.Protocol.Name, rep.Params, sched.EngineName, maxDepth, rep.Explore.Violations)
	data, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: encode witness: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReplayWitness loads a witness file and re-executes every recorded schedule
// via trace.ReplayViolation, writing one line per schedule to out. It
// returns an error if the file is unreadable, the protocol unknown, a replay
// fails to execute, or any schedule no longer reproduces its violation —
// the signature of a witness recorded from different code or parameters.
func ReplayWitness(out io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var w wire.Witness
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("harness: decode witness %s: %w", path, err)
	}
	if err := sched.CheckEngine(w.Engine); err != nil {
		return &UsageError{Err: err}
	}
	nprocs, f, err := Resolve(wire.Job{Protocol: w.Protocol, Params: w.Params})
	if err != nil {
		return &UsageError{Err: err}
	}
	fmt.Fprintf(out, "witness %s: %s n=%d, %d recorded violation(s)\n", path, w.Protocol, w.Params.N, len(w.Violations))
	failed := 0
	for i, v := range w.Violations {
		violErr, runErr := trace.ReplayViolation(nprocs, f, trace.Violation{Schedule: v.Schedule})
		switch {
		case runErr != nil:
			return fmt.Errorf("harness: witness violation %d: %w", i, runErr)
		case violErr == nil:
			failed++
			fmt.Fprintf(out, "  [%d] NOT REPRODUCED on schedule %v (recorded: %s)\n", i, v.Schedule, v.Err)
		default:
			fmt.Fprintf(out, "  [%d] reproduced on schedule %v: %v\n", i, v.Schedule, violErr)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d recorded violation(s) did not reproduce", failed, len(w.Violations))
	}
	if len(w.Violations) > 0 {
		fmt.Fprintf(out, "all %d violation(s) reproduced\n", len(w.Violations))
	}
	return nil
}
