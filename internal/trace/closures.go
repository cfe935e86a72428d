package trace

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// Closures is a list of visited-state closures in the form they are shipped
// between processes and journaled: a subtree outcome's new closures and a
// lease's table delta. It encodes to JSON as one string, the standard padded
// base64 of each entry in order, Fp as 8 little-endian bytes followed by Rem
// as a zigzag varint (binary.AppendVarint): 12 base64 characters for an
// entry whose Rem is below 64, about a third of its JSON object. It decodes
// that string, the JSON array of {"Fp","Rem"} objects that wire version 7
// wrote (so older journals still load), and null; an empty list decodes as
// nil.
type Closures []FpEntry

// fpLen is the encoded length of an entry's fingerprint, the least an entry
// takes: a Rem varint is at least one more byte.
const fpLen = 8

// MarshalJSON encodes the closures as one base64 JSON string.
func (c Closures) MarshalJSON() ([]byte, error) {
	raw := make([]byte, 0, len(c)*(fpLen+1))
	for _, e := range c {
		raw = binary.LittleEndian.AppendUint64(raw, e.Fp)
		raw = binary.AppendVarint(raw, int64(e.Rem))
	}
	out := make([]byte, base64.StdEncoding.EncodedLen(len(raw))+2)
	out[0], out[len(out)-1] = '"', '"'
	base64.StdEncoding.Encode(out[1:len(out)-1], raw)
	return out, nil
}

// UnmarshalJSON decodes the base64 string form, the legacy array form, or
// null. It rejects malformed base64, an entry cut short and a Rem varint
// that overflows.
func (c *Closures) UnmarshalJSON(data []byte) error {
	switch {
	case string(data) == "null":
		*c = nil
		return nil
	case len(data) > 0 && data[0] == '[':
		var legacy []FpEntry
		if err := json.Unmarshal(data, &legacy); err != nil {
			return err
		}
		if len(legacy) == 0 {
			legacy = nil
		}
		*c = legacy
		return nil
	case len(data) < 2 || data[0] != '"':
		return fmt.Errorf("trace: closures: want a base64 string, got %.20q", data)
	}
	enc := data[1 : len(data)-1]
	if bytes.IndexByte(enc, '\\') >= 0 {
		// Base64 needs no JSON escapes, but a peer may still have used them.
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		enc = []byte(s)
	}
	raw := make([]byte, base64.StdEncoding.DecodedLen(len(enc)))
	n, err := base64.StdEncoding.Decode(raw, enc)
	if err != nil {
		return fmt.Errorf("trace: closures: %w", err)
	}
	entries, err := decodeClosures(raw[:n])
	if err != nil {
		return err
	}
	*c = entries
	return nil
}

// errClosureTruncated reports an encoded closure list cut inside an entry.
var errClosureTruncated = errors.New("trace: closures: entry cut short")

// decodeClosures parses the entries of an encoded closure list; an empty
// list is nil.
func decodeClosures(raw []byte) (Closures, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make(Closures, 0, len(raw)/(fpLen+1))
	for len(raw) > 0 {
		if len(raw) < fpLen {
			return nil, errClosureTruncated
		}
		rem, k := binary.Varint(raw[fpLen:])
		switch {
		case k == 0:
			return nil, errClosureTruncated
		case k < 0 || int64(int(rem)) != rem:
			return nil, fmt.Errorf("trace: closures: entry %d: Rem overflows", len(out))
		}
		out = append(out, FpEntry{Fp: binary.LittleEndian.Uint64(raw), Rem: int(rem)})
		raw = raw[fpLen+k:]
	}
	return out, nil
}
