package columnbm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// codecRoundTrip encodes vals with the best-codec heuristic and decodes the
// result, failing on any mismatch.
func codecRoundTrip(t *testing.T, vals []int64) {
	t.Helper()
	payload, codec := encodeInt64(vals)
	hdr := chunkHeader{codec: codec, count: len(vals), rawSize: 8 * len(vals)}
	got := make([]int64, len(vals))
	if err := decodeIntInto(got, hdr, payload); err != nil {
		t.Fatalf("codec %v: decode failed: %v", codec, err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("codec %v: value %d: got %d, want %d", codec, i, got[i], vals[i])
		}
	}
}

// forceRoundTrip round-trips one specific codec encoding when it applies.
func forceRoundTrip(t *testing.T, vals []int64, codec Codec, enc func([]int64) []byte) {
	t.Helper()
	payload := enc(vals)
	if payload == nil {
		return // codec declined (unprofitable or out of range)
	}
	hdr := chunkHeader{codec: codec, count: len(vals), rawSize: 8 * len(vals)}
	got := make([]int64, len(vals))
	if err := decodeIntInto(got, hdr, payload); err != nil {
		t.Fatalf("%v: decode failed: %v", codec, err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("%v: value %d: got %d, want %d", codec, i, got[i], vals[i])
		}
	}
}

func TestCodecRoundTripAdversarial(t *testing.T) {
	cases := map[string][]int64{
		"empty":          {},
		"single":         {42},
		"constant":       {7, 7, 7, 7, 7, 7, 7, 7},
		"sorted":         {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		"sorted-steps":   {100, 100, 101, 105, 105, 105, 200, 201},
		"descending":     {10, 9, 8, 7, 6, 5},
		"extremes":       {math.MinInt64, math.MaxInt64, 0, -1, 1},
		"overflow-diffs": {math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64},
		"near-max":       {math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 255},
		"near-min":       {math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 65535},
		"wide-for":       {0, 1 << 31, 42, 1<<32 - 1},
		"too-wide-for":   {0, 1 << 40},
		"negatives":      {-5, -4, -4, -3, 0, 2, 2, 2},
		"runs":           {1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3},
		"zigzag":         {0, 100, 0, 100, 0, 100},
	}
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) {
			codecRoundTrip(t, vals)
			forceRoundTrip(t, vals, CodecRLE, tryRLE)
			forceRoundTrip(t, vals, CodecFoR, tryFoR)
			forceRoundTrip(t, vals, CodecDelta, tryDelta)
		})
	}
}

func TestCodecRoundTripRandom(t *testing.T) {
	shapes := []func(r *rand.Rand, n int) []int64{
		// Uniform random over the full int64 range.
		func(r *rand.Rand, n int) []int64 {
			v := make([]int64, n)
			for i := range v {
				v[i] = int64(r.Uint64())
			}
			return v
		},
		// Sorted with small steps: the delta codec's home turf.
		func(r *rand.Rand, n int) []int64 {
			v := make([]int64, n)
			x := int64(r.Uint64() >> 1)
			for i := range v {
				x += int64(r.Intn(7))
				v[i] = x
			}
			return v
		},
		// Runs of repeated values: RLE territory.
		func(r *rand.Rand, n int) []int64 {
			v := make([]int64, 0, n)
			for len(v) < n {
				x := int64(r.Intn(16))
				k := min(1+r.Intn(32), n-len(v))
				for j := 0; j < k; j++ {
					v = append(v, x)
				}
			}
			return v
		},
		// Narrow domain around a huge base: FoR territory.
		func(r *rand.Rand, n int) []int64 {
			v := make([]int64, n)
			base := int64(r.Uint64())
			for i := range v {
				v[i] = base + int64(r.Intn(1000))
			}
			return v
		},
	}
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		for si, shape := range shapes {
			n := r.Intn(2000)
			vals := shape(r, n)
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("seed %d shape %d: panic: %v", seed, si, p)
					}
				}()
				codecRoundTrip(t, vals)
				forceRoundTrip(t, vals, CodecRLE, tryRLE)
				forceRoundTrip(t, vals, CodecFoR, tryFoR)
				forceRoundTrip(t, vals, CodecDelta, tryDelta)
			}()
		}
	}
}

// FuzzInt64CodecRoundTrip feeds arbitrary byte strings in as values
// (interpreted as int64s) and asserts the chosen codec round-trips.
func FuzzInt64CodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.MaxUint64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := make([]int64, len(raw)/8)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		codecRoundTrip(t, vals)
	})
}

// FuzzInt64CodecDecode asserts the decoder never panics or over-reads on
// arbitrary (possibly corrupt) payloads under any codec id.
func FuzzInt64CodecDecode(f *testing.F) {
	good, codec := encodeInt64([]int64{1, 2, 3, 1000, -7})
	f.Add(uint8(codec), 5, good)
	f.Add(uint8(CodecRLE), 3, []byte{1, 2, 3})
	f.Add(uint8(CodecDelta), 2, bytes.Repeat([]byte{0x80}, 19))
	f.Fuzz(func(t *testing.T, codec uint8, count int, payload []byte) {
		if count < 0 || count > 1<<16 {
			return
		}
		hdr := chunkHeader{codec: Codec(codec), count: count, rawSize: 8 * count}
		_ = decodeIntInto(make([]int64, count), hdr, payload) // must not panic
	})
}

// --- string codecs ---

// stringRoundTrip encodes vals with the best-codec heuristic and decodes
// the result, failing on any mismatch.
func stringRoundTrip(t *testing.T, vals []string) Codec {
	t.Helper()
	payload, codec, card, rawSize := encodeString(vals)
	if want := len(encodeStringRaw(vals)); rawSize != want {
		t.Fatalf("rawSize = %d, want %d", rawSize, want)
	}
	if codec == CodecDict && (card <= 0 || card > maxDictCard) {
		t.Fatalf("dict chunk reports cardinality %d", card)
	}
	if codec != CodecDict && card != 0 {
		t.Fatalf("codec %v reports dict cardinality %d", codec, card)
	}
	hdr := chunkHeader{codec: codec, count: len(vals)}
	got := make([]string, len(vals))
	if err := decodeStringInto(got, hdr, payload); err != nil {
		t.Fatalf("codec %v: decode failed: %v", codec, err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("codec %v: value %d: got %q, want %q", codec, i, got[i], vals[i])
		}
	}
	return codec
}

// forceStringRoundTrip round-trips one specific string codec when it
// applies.
func forceStringRoundTrip(t *testing.T, vals []string, codec Codec, payload []byte) {
	t.Helper()
	if payload == nil {
		return // codec declined (unprofitable or out of range)
	}
	hdr := chunkHeader{codec: codec, count: len(vals)}
	got := make([]string, len(vals))
	if err := decodeStringInto(got, hdr, payload); err != nil {
		t.Fatalf("%v: decode failed: %v", codec, err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("%v: value %d: got %q, want %q", codec, i, got[i], vals[i])
		}
	}
}

// allStringCodecsRoundTrip round-trips vals through the codec the writer
// picks and through each string codec forced, where it applies.
func allStringCodecsRoundTrip(t *testing.T, vals []string) {
	t.Helper()
	stringRoundTrip(t, vals)
	raw := encodeStringRaw(vals)
	forceStringRoundTrip(t, vals, CodecRaw, raw)
	dictPayload, _ := tryDictStr(vals, len(raw))
	forceStringRoundTrip(t, vals, CodecDict, dictPayload)
	forceStringRoundTrip(t, vals, CodecPrefix, tryPrefix(vals, len(raw)))
}

func TestStringCodecRoundTripAdversarial(t *testing.T) {
	repeat := func(v string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	highCard := make([]string, 3000)
	for i := range highCard {
		highCard[i] = fmt.Sprintf("value-%d-%x", i, i*2654435761)
	}
	sortedKeys := make([]string, 500)
	for i := range sortedKeys {
		sortedKeys[i] = fmt.Sprintf("Customer#%09d", i)
	}
	cases := map[string][]string{
		"empty-chunk":     {},
		"single":          {"x"},
		"empty-strings":   repeat("", 100),
		"all-identical":   repeat("PROMO BURNISHED", 512),
		"two-values":      {"yes", "no", "no", "yes", "yes", "no"},
		"high-card":       highCard,
		"shared-prefix":   sortedKeys,
		"dates":           {"1994-01-01", "1994-01-02", "1994-01-02", "1994-02-17", "1995-12-31"},
		"non-utf8":        {string([]byte{0xff, 0xfe, 0x00}), string([]byte{0x80}), "", string(bytes.Repeat([]byte{0xc3, 0x28}, 40))},
		"nul-bytes":       {"a\x00b", "a\x00", "\x00\x00", "a\x00b"},
		"prefix-regress":  {"aaaa", "aaab", "a", "aaac", "", "aaad"},
		"long-and-short":  {string(bytes.Repeat([]byte("ab"), 5000)), "x", string(bytes.Repeat([]byte("ab"), 5000))},
		"mixed-emptiness": {"", "a", "", "aa", "", "aaa"},
	}
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) {
			allStringCodecsRoundTrip(t, vals)
		})
	}
}

// TestStringCodecChoice pins the codec the heuristic picks for the shapes
// the codecs were designed for.
func TestStringCodecChoice(t *testing.T) {
	lowCard := make([]string, 4096)
	modes := []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}
	for i := range lowCard {
		lowCard[i] = modes[i%len(modes)]
	}
	if c := stringRoundTrip(t, lowCard); c != CodecDict {
		t.Errorf("low-cardinality column picked %v, want dict", c)
	}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("Supplier#%09d", i)
	}
	if c := stringRoundTrip(t, keys); c != CodecPrefix {
		t.Errorf("shared-prefix column picked %v, want prefix", c)
	}
	// Incompressible data must stay raw: prefix's varint lengths shave a
	// few percent off any input, but below the profitability margin the
	// writer keeps the raw layout.
	random := make([]string, 1024)
	r := rand.New(rand.NewSource(7))
	for i := range random {
		b := make([]byte, 30+r.Intn(30))
		r.Read(b)
		random[i] = string(b)
	}
	if c := stringRoundTrip(t, random); c != CodecRaw {
		t.Errorf("random column picked %v, want raw", c)
	}
}

// noFFBytes returns n pseudo-random bytes without 0xFF, the value separator
// of FuzzStringCodecRoundTrip.
func noFFBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(255))
	}
	return b
}

// FuzzStringCodecRoundTrip splits an arbitrary byte string into values on
// 0xFF and asserts that the chosen codec and every forced string codec
// round-trip.
func FuzzStringCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello\xffhello\xffworld"))
	f.Add(bytes.Repeat([]byte{0xfe, 0xff}, 64))
	// Seeds at the edge of a decoded backing copy (stringBackingBytes of
	// value bytes): values ending exactly on it, one value filling it, one
	// value longer than it, zero-length values, and an all-empty chunk.
	r := rand.New(rand.NewSource(1))
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, []byte{0xff}) }
	f.Add(join(noFFBytes(r, stringBackingBytes-100), noFFBytes(r, 100), noFFBytes(r, 1)))
	f.Add(join(noFFBytes(r, stringBackingBytes), nil, noFFBytes(r, 1), nil))
	f.Add(join(noFFBytes(r, 10), noFFBytes(r, stringBackingBytes+1), noFFBytes(r, 10)))
	f.Add(join(nil, noFFBytes(r, 3), nil, nil, noFFBytes(r, 2), nil))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := []string{}
		for _, part := range bytes.Split(raw, []byte{0xff}) {
			vals = append(vals, string(part))
		}
		allStringCodecsRoundTrip(t, vals)
	})
}

// TestStringDecodeNoAlias decodes a raw, a prefix and a dict chunk, each
// spanning several backing copies and holding a value longer than one, then
// overwrites the payload: no decoded value may change, because none may
// point into the (pooled, reused) payload buffer. It also bounds the
// decode's allocations to a few per backing copy, not one per value.
func TestStringDecodeNoAlias(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	big := string(noFFBytes(r, stringBackingBytes+123))
	rawVals := make([]string, 6000)
	for i := range rawVals {
		rawVals[i] = string(noFFBytes(r, r.Intn(60)))
	}
	rawVals[100] = big
	prefixVals := make([]string, 6000)
	for i := range prefixVals {
		prefixVals[i] = fmt.Sprintf("Customer#%09d", i)
	}
	prefixVals[200] += big
	modes := []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", big}
	dictVals := make([]string, 6000)
	for i := range dictVals {
		dictVals[i] = modes[i%len(modes)]
	}
	for _, tc := range []struct {
		codec Codec
		vals  []string
	}{
		{CodecRaw, rawVals},
		{CodecPrefix, prefixVals},
		{CodecDict, dictVals},
	} {
		raw := encodeStringRaw(tc.vals)
		var payload []byte
		switch tc.codec {
		case CodecRaw:
			payload = raw
		case CodecPrefix:
			payload = tryPrefix(tc.vals, len(raw))
		case CodecDict:
			payload, _ = tryDictStr(tc.vals, len(raw))
		}
		if payload == nil {
			t.Fatalf("%v: codec declined the test chunk", tc.codec)
		}
		hdr := chunkHeader{codec: tc.codec, count: len(tc.vals)}
		got := make([]string, len(tc.vals))
		allocs := testing.AllocsPerRun(5, func() {
			if err := decodeStringInto(got, hdr, payload); err != nil {
				t.Fatalf("%v: decode failed: %v", tc.codec, err)
			}
		})
		if maxAllocs := 2*(len(raw)/stringBackingBytes) + 4; allocs > float64(maxAllocs) {
			t.Errorf("%v: %.0f allocations per decode, want at most %d", tc.codec, allocs, maxAllocs)
		}
		for i := range payload {
			payload[i] = 0xAA
		}
		for i, want := range tc.vals {
			if got[i] != want {
				t.Fatalf("%v: value %d changed after the payload was overwritten", tc.codec, i)
			}
		}
	}
}

// FuzzStringCodecDecode asserts the string decoder never panics or
// over-reads on arbitrary (possibly corrupt) payloads under any codec id.
func FuzzStringCodecDecode(f *testing.F) {
	good, codec, _, _ := encodeString([]string{"a", "bb", "a", "ccc"})
	f.Add(uint8(codec), 4, good)
	f.Add(uint8(CodecDict), 2, []byte{1, 0, 0, 0})
	f.Add(uint8(CodecPrefix), 3, []byte{0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, codec uint8, count int, payload []byte) {
		if count < 0 || count > 1<<16 {
			return
		}
		dst := make([]string, count)
		hdr := chunkHeader{codec: Codec(codec), count: count}
		_ = decodeStringInto(dst, hdr, payload) // must not panic
	})
}
