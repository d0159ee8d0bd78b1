package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"

	"btrblocks/internal/bitpack"
	"btrblocks/internal/fastpfor"
	"btrblocks/internal/roaring"
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

// numInfo is the part of a descriptor that does not depend on the value
// type; the layout walkers need nothing else.
type numInfo struct {
	kind  Kind
	width int // bytes per value in plain, OneValue and Frequency payloads
	// pool is the fixed candidate order; on estimate ties the earlier
	// (cheaper to decode) scheme wins.
	pool []Code
}

// Numeric describes one numeric column type to the shared cascade: T is
// the value type, K the key its profile identifies values by (the value
// itself for integers, the bit pattern for doubles, so NaN payloads and
// -0.0 stay distinct). The three instances are Int, Int64 and Double;
// every function value in it is called per stream or per 128-value block,
// never per value.
type Numeric[T numeric, K stats.Key] struct {
	numInfo
	allow   func(*Config) []Code // the Config's restriction of pool
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
	// The leaf codecs: the schemes of pool the shared code does not
	// implement (FastBP, FastPFOR, Pseudodecimal). body excludes the tag.
	encodeLeaf func(dst []byte, src []T, code Code, cfg *Config, depth int, rng *rand.Rand) []byte
	decodeLeaf func(dst []T, body []byte, code Code, cfg *Config) ([]T, int, error)
	// scanFOR evaluates a predicate on a FastBP body block by block; nil
	// where the pool has no FastBP. Its Matcher is the type's *Pred: the
	// only one there is for an integer type.
	scanFOR func(body []byte, m Matcher[T], base uint32, out *roaring.Bitmap, st *SelectStats, cfg *Config) (int, int, error)
	// rowOrder is set where folds must visit rows in order because sums
	// round (doubles).
	rowOrder bool
}

// Int describes int32 columns, and the int32 sub-streams every cascade
// produces: run lengths, dictionary codes, string lengths, PDE digits and
// exponents.
var Int = &Numeric[int32, int32]{
	numInfo: numInfo{kind: KindInt, width: 4,
		pool: []Code{CodeOneValue, CodeFastBP, CodeFastPFOR, CodeRLE, CodeDict, CodeFrequency}},
	allow:   func(c *Config) []Code { return c.IntSchemes },
	scratch: func(s *Scratch) *numScratch[int32, int32] { return &s.ints },
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
	encodeLeaf: func(dst []byte, src []int32, code Code, _ *Config, _ int, _ *rand.Rand) []byte {
		if code == CodeFastPFOR {
			return fastpfor.Encode(dst, src)
		}
		return bitpack.EncodeFOR(dst, src)
	},
	decodeLeaf: func(dst []int32, body []byte, code Code, cfg *Config) ([]int32, int, error) {
		switch {
		case code == CodeFastBP && cfg.ScalarDecode:
			return bitpack.DecodeFORGeneric(dst, body)
		case code == CodeFastBP:
			return bitpack.DecodeFOR(dst, body)
		case code == CodeFastPFOR && cfg.ScalarDecode:
			return fastpfor.DecodeGeneric(dst, body)
		case code == CodeFastPFOR:
			return fastpfor.Decode(dst, body)
		}
		return dst, 0, ErrCorrupt
	},
	scanFOR: func(body []byte, m Matcher[int32], base uint32, out *roaring.Bitmap, st *SelectStats, cfg *Config) (int, int, error) {
		return scanFOR(body, m.(*Pred[int32]), base, out, st, cfg, bitpack.Unpack, bitpack.UnpackGeneric)
	},
}

// Int64 describes int64 columns (timestamps, surrogate keys): the int32
// pool minus FastPFOR — FOR + bit-packing with per-128-block widths
// already absorbs the outlier cost at 64-bit widths.
var Int64 = &Numeric[int64, int64]{
	numInfo: numInfo{kind: KindInt64, width: 8,
		pool: []Code{CodeOneValue, CodeFastBP, CodeRLE, CodeDict, CodeFrequency}},
	allow:   func(c *Config) []Code { return c.IntSchemes },
	scratch: func(s *Scratch) *numScratch[int64, int64] { return &s.ints64 },
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
	encodeLeaf: func(dst []byte, src []int64, _ Code, _ *Config, _ int, _ *rand.Rand) []byte {
		return bitpack.EncodeFOR64(dst, src)
	},
	decodeLeaf: func(dst []int64, body []byte, code Code, cfg *Config) ([]int64, int, error) {
		switch {
		case code == CodeFastBP && cfg.ScalarDecode:
			return bitpack.DecodeFOR64Generic(dst, body)
		case code == CodeFastBP:
			return bitpack.DecodeFOR64(dst, body)
		}
		return dst, 0, ErrCorrupt
	},
	scanFOR: func(body []byte, m Matcher[int64], base uint32, out *roaring.Bitmap, st *SelectStats, cfg *Config) (int, int, error) {
		return scanFOR(body, m.(*Pred[int64]), base, out, st, cfg, bitpack.Unpack64, bitpack.Unpack64Generic)
	},
}

// Double describes float64 columns — the double branch of the Figure 3
// decision tree. Values are identified by bit pattern everywhere, so the
// round trip is bit-exact (NaN payloads and -0.0 included).
var Double = &Numeric[float64, uint64]{
	numInfo: numInfo{kind: KindDouble, width: 8,
		pool: []Code{CodeOneValue, CodeDict, CodeRLE, CodeFrequency, CodePDE}},
	allow:   func(c *Config) []Code { return c.DoubleSchemes },
	scratch: func(s *Scratch) *numScratch[float64, uint64] { return &s.doubles },
	put:     putDoubles,
	get:     getDoubles,
	one:     func(src []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(src)) },
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
	runs: runsOfDoubles,
	encodeLeaf: func(dst []byte, src []float64, _ Code, cfg *Config, depth int, rng *rand.Rand) []byte {
		return encodePDE(dst, src, cfg, depth, rng)
	},
	decodeLeaf: func(dst []float64, body []byte, code Code, cfg *Config) ([]float64, int, error) {
		if code != CodePDE {
			return dst, 0, ErrCorrupt
		}
		return decodePDE(dst, body, cfg)
	},
	rowOrder: true,
}

// Schemes lists every root scheme applicable to the type's blocks.
func (t *numInfo) Schemes() []Code { return append([]Code{CodeUncompressed}, t.pool...) }
