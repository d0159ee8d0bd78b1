package core

import (
	"encoding/binary"
	"math"
	"slices"

	"btrblocks/internal/bitpack"
	"btrblocks/internal/stats"
)

// The numeric cascade is written once. Code that only moves values —
// decoding, run expansion, the dictionary gather, the frequency patch,
// the pick → estimate → encode driver — is generic over numeric. Code that
// needs a value's identity or order goes through the stream's profile
// (keyed by bit pattern for doubles) and the descriptor's runs on the
// write side, and through a Matcher or Folder on the read side. What really differs per type is the
// descriptor below.
type (
	integer interface{ ~int32 | ~int64 }
	numeric interface{ integer | ~float64 }
)

// Numeric describes one numeric column type to the shared cascade: T is
// the value type, K the key its profile identifies values by (the value
// itself for integers, the bit pattern for doubles, so NaN payloads and
// -0.0 stay distinct). The three instances are Int, Int64 and Double;
// every function value in it is called per stream or per 128-value block,
// never per value.
type Numeric[T numeric, K stats.Key] struct {
	kindInfo
	scratch func(*Scratch) *numScratch[T, K]
	// put appends values as little-endian words, get reads len(src)/width
	// of them back, one reads a single value.
	put func(dst []byte, src []T) []byte
	get func(dst []T, src []byte) []T
	one func(src []byte) T
	// keys views a stream as profile keys, vals turns keys back into
	// values; both are the identity for integers.
	keys func(src []T, scr *Scratch) []K
	vals func(keys []K) []T
	// runs splits a stream into RLE (value, length) arrays by identity.
	runs func(src []T) ([]T, []int32)
	// schemes is the kind's scheme table, by code; the pool in kindInfo
	// lists the codes the picker tries, in order.
	schemes [numCodes]*numScheme[T, K]
	// rowOrder is set where folds must visit rows in order because sums
	// round (doubles).
	rowOrder bool
}

// Int describes int32 columns, and the int32 sub-streams every cascade
// produces: run lengths, dictionary codes, string lengths, PDE digits and
// exponents.
var Int = &Numeric[int32, int32]{
	kindInfo: kindInfo{kind: KindInt, width: 4, allow: func(c *Config) []Code { return c.IntSchemes }},
	scratch:  func(s *Scratch) *numScratch[int32, int32] { return &s.ints },
	put: func(dst []byte, src []int32) []byte {
		for _, v := range src {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
		return dst
	},
	get: func(dst []int32, src []byte) []int32 {
		for ; len(src) >= 4; src = src[4:] {
			dst = append(dst, int32(binary.LittleEndian.Uint32(src)))
		}
		return dst
	},
	one:  func(src []byte) int32 { return int32(binary.LittleEndian.Uint32(src)) },
	keys: func(src []int32, _ *Scratch) []int32 { return src },
	vals: func(keys []int32) []int32 { return keys },
	runs: runsOf[int32],
}

// Int64 describes int64 columns (timestamps, surrogate keys): the int32
// pool minus FastPFOR — FOR + bit-packing with per-128-block widths
// already absorbs the outlier cost at 64-bit widths.
var Int64 = &Numeric[int64, int64]{
	kindInfo: kindInfo{kind: KindInt64, width: 8, allow: func(c *Config) []Code { return c.IntSchemes }},
	scratch:  func(s *Scratch) *numScratch[int64, int64] { return &s.ints64 },
	put: func(dst []byte, src []int64) []byte {
		for _, v := range src {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
		return dst
	},
	get: func(dst []int64, src []byte) []int64 {
		for ; len(src) >= 8; src = src[8:] {
			dst = append(dst, int64(binary.LittleEndian.Uint64(src)))
		}
		return dst
	},
	one:  func(src []byte) int64 { return int64(binary.LittleEndian.Uint64(src)) },
	keys: func(src []int64, _ *Scratch) []int64 { return src },
	vals: func(keys []int64) []int64 { return keys },
	runs: runsOf[int64],
}

// Double describes float64 columns — the double branch of the Figure 3
// decision tree. Values are identified by bit pattern everywhere, so the
// round trip is bit-exact (NaN payloads and -0.0 included).
var Double = &Numeric[float64, uint64]{
	kindInfo: kindInfo{kind: KindDouble, width: 8, allow: func(c *Config) []Code { return c.DoubleSchemes }},
	scratch:  func(s *Scratch) *numScratch[float64, uint64] { return &s.doubles },
	put:      putDoubles,
	get:      getDoubles,
	one:      func(src []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(src)) },
	// The keyed copy of a stream is only read while its profile is built,
	// so one buffer serves them all.
	keys: func(src []float64, scr *Scratch) []uint64 {
		scr.bits = slices.Grow(scr.bits[:0], len(src))[:len(src)]
		for i, v := range src {
			scr.bits[i] = math.Float64bits(v)
		}
		return scr.bits
	},
	vals: func(keys []uint64) []float64 {
		out := make([]float64, len(keys))
		for i, b := range keys {
			out[i] = math.Float64frombits(b)
		}
		return out
	},
	runs:     runsOfDoubles,
	rowOrder: true,
}

// The pools are filled here rather than in the literals above because
// their entries encode sub-streams with Int, which would make each literal
// depend on itself.
func init() {
	Int.use(oneValue(Int), fastBP(Int, bitpack.EncodeFOR, bitpack.DecodeFOR, bitpack.DecodeFORGeneric, bitpack.Unpack, bitpack.UnpackGeneric),
		fastPFOR(), rle(Int), dict(Int), frequency(Int))
	Int64.use(oneValue(Int64), fastBP(Int64, bitpack.EncodeFOR64, bitpack.DecodeFOR64, bitpack.DecodeFOR64Generic, bitpack.Unpack64, bitpack.Unpack64Generic),
		rle(Int64), dict(Int64), frequency(Int64))
	Double.use(oneValue(Double), dict(Double), rle(Double), frequency(Double), pseudodecimal())
}

// use fills the kind's scheme table: plain, the implicit baseline, and the
// pool in the picker's order (on estimate ties the earlier, cheaper to
// decode scheme wins).
func (t *Numeric[T, K]) use(pool ...*numScheme[T, K]) {
	t.schemes[CodeUncompressed] = plain(t)
	for _, e := range pool {
		t.schemes[e.code] = e
		t.pool = append(t.pool, e.code)
	}
}

// Decompress decodes one stream, appending values to dst and returning
// the number of input bytes consumed.
func (t *Numeric[T, K]) Decompress(dst []T, src []byte, cfg *Config) ([]T, int, error) {
	e, n, err := head(&t.schemes, src, cfg)
	if err != nil {
		return dst, 0, err
	}
	return e.decode(dst, src, n, cfg)
}

// grow extends dst by n values the caller is about to write, every one of
// them: within dst's capacity they are not cleared first, so a decoder
// handed its range of a column writes that range once.
func grow[T any](dst []T, n int) []T { return slices.Grow(dst, n)[:len(dst)+n] }
