package main

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// countConn is the counting net.Conn seam: every call is forwarded
// unchanged, and the bytes of each direction are split into wire frames (a
// 4-byte big-endian length header, then a JSON body whose first field is
// Kind) and counted per frame kind, header included — the same accounting
// as the registry's dist_wire_bytes_total. It also times Write calls.
type countConn struct {
	net.Conn
	in, out frames
	writeNs atomic.Int64
}

func newCountConn(c net.Conn) *countConn { return &countConn{Conn: c} }

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.feed(p[:n])
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.writeNs.Add(int64(time.Since(t0)))
	c.out.feed(p[:n])
	return n, err
}

// frameCount is the traffic of one frame kind in one direction.
type frameCount struct{ frames, bytes int64 }

// frames reassembles one direction of a framed stream.
type frames struct {
	mu     sync.Mutex
	total  int64
	hdr    [4]byte
	nh     int    // header bytes seen of the current frame
	remain int    // body bytes still to come
	size   int    // current frame's length, header included
	head   []byte // the body's first bytes, enough to read its Kind
	kinds  map[string]frameCount
}

func (f *frames) feed(p []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.total += int64(len(p))
	for len(p) > 0 {
		if f.nh < 4 {
			k := copy(f.hdr[f.nh:], p)
			f.nh += k
			p = p[k:]
			if f.nh == 4 {
				f.remain = int(binary.BigEndian.Uint32(f.hdr[:]))
				f.size = 4 + f.remain
				f.head = f.head[:0]
				if f.remain == 0 {
					f.done()
				}
			}
			continue
		}
		k := min(f.remain, len(p))
		if need := 48 - len(f.head); need > 0 {
			f.head = append(f.head, p[:min(need, k)]...)
		}
		f.remain -= k
		p = p[k:]
		if f.remain == 0 {
			f.done()
		}
	}
}

// done accounts the frame just completed and rearms for the next header.
func (f *frames) done() {
	kind := "other"
	const key = `{"Kind":"`
	if rest, ok := bytes.CutPrefix(f.head, []byte(key)); ok {
		if i := bytes.IndexByte(rest, '"'); i >= 0 {
			kind = string(rest[:i])
		}
	}
	if f.kinds == nil {
		f.kinds = map[string]frameCount{}
	}
	fc := f.kinds[kind]
	fc.frames++
	fc.bytes += int64(f.size)
	f.kinds[kind] = fc
	f.nh = 0
}

// snapshot returns the total bytes and the per-kind counts so far.
func (f *frames) snapshot() (int64, map[string]frameCount) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]frameCount, len(f.kinds))
	for k, v := range f.kinds {
		out[k] = v
	}
	return f.total, out
}

func (f *frames) bytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}
