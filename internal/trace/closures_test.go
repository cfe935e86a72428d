package trace

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// legacyJSON renders entries the way wire version 7 did: a JSON array of
// {"Fp","Rem"} objects.
func legacyJSON(t *testing.T, entries []FpEntry) []byte {
	t.Helper()
	b, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClosuresRoundTrip encodes closure lists to their base64 string and
// back, in order, and decodes the legacy array form and null to the same
// entries.
func TestClosuresRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]FpEntry, 1000)
	for i := range random {
		random[i] = FpEntry{Fp: rng.Uint64(), Rem: rng.Intn(1<<20) - 1<<19}
	}
	for _, c := range []struct {
		name    string
		entries []FpEntry
	}{
		{"nil", nil},
		{"empty", []FpEntry{}},
		{"extremes", []FpEntry{{Fp: 0, Rem: 0}, {Fp: math.MaxUint64, Rem: 1}, {Fp: 1, Rem: -1}}},
		{"large-rem", []FpEntry{{Fp: 42, Rem: math.MaxInt}, {Fp: 43, Rem: math.MinInt}, {Fp: 44, Rem: 1 << 40}}},
		{"random-1000", random},
	} {
		t.Run(c.name, func(t *testing.T) {
			enc, err := json.Marshal(Closures(c.entries))
			if err != nil {
				t.Fatal(err)
			}
			if enc[0] != '"' {
				t.Fatalf("encoding is not a JSON string: %.40s", enc)
			}
			forms := map[string][]byte{"string": enc, "legacy": legacyJSON(t, c.entries)}
			if len(c.entries) == 0 {
				forms["null"] = []byte("null")
			}
			for form, data := range forms {
				var got Closures
				if err := json.Unmarshal(data, &got); err != nil {
					t.Fatalf("%s form: %v", form, err)
				}
				if !slices.Equal(got, c.entries) {
					t.Fatalf("%s form decoded %d entries, want %d (first diff at %d)", form, len(got), len(c.entries), firstDiff(got, c.entries))
				}
				if len(got) == 0 && got != nil {
					t.Fatalf("%s form: empty list decoded as non-nil", form)
				}
			}
		})
	}
}

func firstDiff(a, b []FpEntry) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestClosuresEncodingIsPacked pins the layout: Fp as 8 little-endian bytes,
// then Rem as a zigzag varint, base64 with padding.
func TestClosuresEncodingIsPacked(t *testing.T) {
	enc, err := json.Marshal(Closures{{Fp: 0x0102030405060708, Rem: 9}, {Fp: 1, Rem: -2}})
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte{8, 7, 6, 5, 4, 3, 2, 1, 18, 1, 0, 0, 0, 0, 0, 0, 0, 3}
	if want := `"` + base64.StdEncoding.EncodeToString(raw) + `"`; string(enc) != want {
		t.Fatalf("encoded %s, want %s", enc, want)
	}
}

// TestClosuresRejectMalformed rejects bad base64, an entry cut short in its
// fingerprint or its varint, an overlong varint, and JSON that is neither a
// string, an array nor null.
func TestClosuresRejectMalformed(t *testing.T) {
	entry := binary.LittleEndian.AppendUint64(nil, 7)
	overlong := append(append([]byte(nil), entry...), strings.Repeat("\xff", 10)+"\x01"...)
	str := func(raw []byte) string { return `"` + base64.StdEncoding.EncodeToString(raw) + `"` }
	for _, c := range []struct {
		name, data, want string
	}{
		{"bad-base64", `"AAAA*AAA"`, "illegal base64"},
		{"short-fp", str(entry[:5]), "cut short"},
		{"missing-rem", str(entry), "cut short"},
		{"torn-varint", str(append(append([]byte(nil), entry...), 0x80)), "cut short"},
		{"overlong-varint", str(overlong), "overflows"},
		{"number", `12`, "want a base64 string"},
		{"object", `{"Fp":1}`, "want a base64 string"},
		{"legacy-bad-entry", `[{"Fp":-1,"Rem":1}]`, "cannot unmarshal"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got Closures
			err := json.Unmarshal([]byte(c.data), &got)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("decoding %s: err = %v, want one containing %q", c.data, err, c.want)
			}
		})
	}
}

// TestClosuresEscapedString decodes a string whose base64 characters a peer
// escaped: JSON allows it, and the decoded entries are the same.
func TestClosuresEscapedString(t *testing.T) {
	want := Closures{{Fp: math.MaxUint64, Rem: 63}}
	enc, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	escaped := strings.ReplaceAll(string(enc), "/", `\/`)
	if escaped == string(enc) {
		t.Fatalf("nothing to escape in %s", enc)
	}
	var got Closures
	if err := json.Unmarshal([]byte(escaped), &got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("escaped %s decoded %v, want %v", escaped, got, want)
	}
}
