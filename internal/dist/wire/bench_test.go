package wire

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"revisionist/internal/trace"
)

// resultMsg is a Result frame carrying n closures shaped like a pruned
// subtree's: distinct fingerprints in sorted order, remaining depths of a
// depth-16 search.
func resultMsg(n int) *Msg {
	rng := rand.New(rand.NewSource(int64(n)))
	closures := make([]trace.FpEntry, n)
	for i := range closures {
		closures[i] = trace.FpEntry{Fp: rng.Uint64(), Rem: 1 + rng.Intn(16)}
	}
	slices.SortFunc(closures, func(a, b trace.FpEntry) int { return cmp.Compare(a.Fp, b.Fp) })
	return &Msg{Kind: KindResult, Result: &Result{Job: "j0001", ID: 17, Outcome: &trace.SubtreeOutcome{
		Runs: 2 * n, Truncated: n / 4, Exhausted: true, Pruned: n / 2, Distinct: n,
		Closures: closures,
	}}}
}

// BenchmarkWireResult times one Send plus one Recv of a Result frame, the
// frame a worker returns per leased subtree, with 100 and with 1,000
// closures. bytes/frame is the frame's length on the wire, header included.
func BenchmarkWireResult(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("closures=%d", n), func(b *testing.B) {
			m := resultMsg(n)
			var buf bytes.Buffer
			c := NewConn(&buf)
			frameBytes := 0
			c.SetObserver(func(dir, _ string, n int) {
				if dir == "out" {
					frameBytes = n
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(m); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Recv(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(frameBytes), "bytes/frame")
		})
	}
}
