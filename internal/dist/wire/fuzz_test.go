package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// recvAllocBound is the most FuzzWireRecv lets Conn.Recv allocate for an
// input of n bytes. Decoding is linear in what arrives: JSON can expand a
// 3-byte "{}," into a struct of ~150 bytes, and slices grow by doubling.
// The constant covers the first body chunk and allocator bookkeeping. A
// length prefix promising more than arrives must stay under it: the body
// buffer grows with the bytes, not with the promise.
func recvAllocBound(n int) uint64 { return 128*uint64(n) + 1<<20 }

// rawFrame frames a hand-written JSON body.
func rawFrame(body string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// legacyClosureBodies are the lease and result of sampleMsgs with their
// closure lists in the JSON array form wire version 7 sent.
var legacyClosureBodies = []string{
	`{"Kind":"lease","Lease":{"Job":"j0007","ID":7,"Root":[0,2,1],"Base":420,"ViolBase":2,` +
		`"Table":[{"Fp":9223372036854775808,"Rem":9},{"Fp":42,"Rem":1}]}}`,
	`{"Kind":"result","Result":{"Job":"j0007","ID":7,"Outcome":{"Runs":12,"Truncated":3,"Exhausted":true,` +
		`"Pruned":2,"Distinct":5,"Violations":[{"Schedule":[0,1,0],"Err":"disagreement"}],` +
		`"Closures":[{"Fp":3,"Rem":2}]}}}`,
}

// corruptClosureBodies carry closure lists a decoder must reject: bad
// base64, an entry cut short, an overlong Rem varint, and a number.
var corruptClosureBodies = []string{
	`{"Kind":"lease","Lease":{"Job":"j0007","ID":7,"Root":[0],"Base":0,"Table":"AAAA*AAAAAAA"}}`,
	`{"Kind":"result","Result":{"Job":"j0007","ID":7,"Outcome":{"Runs":1,"Closures":"AwAAAAAA"}}}`,
	`{"Kind":"result","Result":{"Job":"j0007","ID":7,"Outcome":{"Runs":1,"Closures":"AwAAAAAAAAD/////////////AQ=="}}}`,
	`{"Kind":"lease","Lease":{"Job":"j0007","ID":7,"Root":[0],"Base":0,"Table":12}}`,
}

// frame encodes m as one wire frame.
func frame(tb testing.TB, m *Msg) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := NewConn(&buf).Send(m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzWireRecv feeds arbitrary bytes to Conn.Recv, frame after frame until
// it errors. Recv must never panic, must allocate only linearly in the bytes
// it was given (see recvAllocBound), and every message it accepts must
// round-trip: Send re-encodes it, Recv decodes that, and a second Send gives
// the same bytes.
func FuzzWireRecv(f *testing.F) {
	var all []byte
	for _, m := range sampleMsgs() {
		fr := frame(f, m)
		f.Add(fr)
		all = append(all, fr...)
	}
	f.Add(all)
	f.Add([]byte{})
	f.Add([]byte{0, 0})                                 // torn header
	f.Add([]byte{0, 0, 0, 100, '{', '"'})               // torn body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})               // over the frame cap
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame)) // at the cap, no body
	f.Add([]byte{0, 0, 0, 0})                           // empty body
	f.Add(append([]byte{0, 0, 0, 2}, '{', '}'))         // no kind
	f.Add(append([]byte{0, 0, 0, 9}, `{"Jobs":1`...))   // type mismatch, torn
	// Closure lists in the version-7 array form, and corrupted string forms.
	for _, body := range legacyClosureBodies {
		f.Add(rawFrame(body))
	}
	for _, body := range corruptClosureBodies {
		f.Add(rawFrame(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := NewConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard})
		var msgs []*Msg
		for {
			m, err := c.Recv()
			if err != nil {
				break
			}
			msgs = append(msgs, m)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > recvAllocBound(len(data)) {
			t.Fatalf("Recv allocated %d bytes for a %d-byte input (bound %d)", alloc, len(data), recvAllocBound(len(data)))
		}
		for _, m := range msgs {
			var buf bytes.Buffer
			rt := NewConn(&buf)
			if err := rt.Send(m); err != nil {
				t.Fatalf("accepted %q message does not re-encode: %v", m.Kind, err)
			}
			first := bytes.Clone(buf.Bytes())
			m2, err := rt.Recv()
			if err != nil {
				t.Fatalf("re-encoded %q message does not decode: %v", m.Kind, err)
			}
			if err := rt.Send(m2); err != nil {
				t.Fatalf("round-tripped %q message does not re-encode: %v", m.Kind, err)
			}
			if !bytes.Equal(first, buf.Bytes()) {
				t.Fatalf("%q message changed in a round trip:\nfirst  %q\nsecond %q", m.Kind, first, buf.Bytes())
			}
		}
	})
}
