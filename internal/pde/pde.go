// Package pde implements Pseudodecimal Encoding (§4 of the BtrBlocks
// paper): a lossless compression transform for IEEE 754 doubles that
// rewrites each value as a pair of small integers — significant digits
// (with sign) and a decimal exponent — such that digits * 10^-exp
// reproduces the exact input bits. Doubles that have no such compact
// decimal representation (high-precision values, ±Inf, NaN, -0.0) are kept
// verbatim as "patches" tracked by an exception bitmap.
package pde

import (
	"math"
	"slices"
)

const (
	// MaxExponent is the largest decimal exponent the encoder probes
	// (10^-22 is the last power of ten exactly representable as a double).
	MaxExponent = 22
	// ExceptionExponent marks a value stored as a patch.
	ExceptionExponent = 23
)

// frac10[e] == 10^-e. Dividing by a power of ten during encoding and
// multiplying during decoding must use the identical constant so the
// round trip is bit-identical; a static table also avoids recomputation
// (footnote 1 in the paper).
var frac10 = [MaxExponent + 1]float64{
	1.0, 0.1, 0.01, 0.001, 0.0001, 0.00001, 0.000001,
	1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14,
	1e-15, 1e-16, 1e-17, 1e-18, 1e-19, 1e-20, 1e-21, 1e-22,
}

// Decimal is the pseudodecimal form of a single double. If Exp ==
// ExceptionExponent the value could not be encoded and Patch holds the
// original double.
type Decimal struct {
	Digits int32
	Exp    int32
	Patch  float64
}

// EncodeSingle converts one double into its pseudodecimal representation
// (Listing 2 of the paper). ok is false when the value must be patched.
func EncodeSingle(input float64) (d Decimal, ok bool) {
	neg := input < 0
	dbl := input
	if neg {
		dbl = -input
	}
	// -0.0 would encode as +0.0 (sign lives in the digits integer),
	// so it must be patched to stay bit-identical. NaN fails every
	// comparison below and ±Inf never multiplies back exactly, so both
	// fall through to the patch path naturally; the explicit signbit
	// check is only needed for the negative-zero overload.
	if input == 0 && math.Signbit(input) {
		return Decimal{Exp: ExceptionExponent, Patch: input}, false
	}
	for exp := 0; exp <= MaxExponent; exp++ {
		cd := dbl / frac10[exp]
		digits := math.Round(cd)
		if digits > math.MaxInt32 {
			break // digits no longer fit in 32 bits; larger exp only grows them
		}
		if digits*frac10[exp] == dbl {
			di := int32(digits)
			if neg {
				di = -di
			}
			return Decimal{Digits: di, Exp: int32(exp)}, true
		}
	}
	return Decimal{Exp: ExceptionExponent, Patch: input}, false
}

// DecodeSingle reconstructs the double for an encoded (non-patch) Decimal.
func DecodeSingle(d Decimal) float64 {
	digits := d.Digits
	neg := digits < 0
	if neg {
		digits = -digits
	}
	v := float64(digits) * frac10[d.Exp]
	if neg {
		v = -v
	}
	return v
}

// Encode converts a block of doubles into three parallel outputs: the
// significant digits, the exponents (ExceptionExponent for patches), and
// the patch values in input order. patchIdx receives the index of every
// patched position. The digit/exponent slices always have len(src) entries
// so downstream cascades see aligned columns.
func Encode(src []float64) (digits, exps []int32, patches []float64, patchIdx []uint32) {
	digits = make([]int32, len(src))
	exps = make([]int32, len(src))
	for i, v := range src {
		d, ok := EncodeSingle(v)
		if !ok {
			exps[i] = ExceptionExponent
			patches = append(patches, v)
			patchIdx = append(patchIdx, uint32(i))
			continue
		}
		digits[i] = d.Digits
		exps[i] = d.Exp
	}
	return digits, exps, patches, patchIdx
}

// Decode reconstructs the original doubles from Encode's outputs,
// appending to dst. The patch positions must be sorted ascending (Encode
// produces them that way). Mirroring §5 of the paper, the hot path decodes
// four values per iteration and only falls back to the patch-aware scalar
// path for groups that contain an exception.
func Decode(dst []float64, digits, exps []int32, patches []float64, patchIdx []uint32) []float64 {
	n := len(digits)
	out := len(dst)
	dst = slices.Grow(dst, n)[:out+n] // every slot is written below
	o := dst[out:]
	pi := 0
	i := 0
	for ; i+4 <= n; i += 4 {
		// Fast path: a branch-free check whether this group of four has
		// any exception, analogous to the vectorized bitmap probe.
		if exps[i]|exps[i+1]|exps[i+2]|exps[i+3] < ExceptionExponent {
			o[i] = DecodeOne(digits[i], exps[i])
			o[i+1] = DecodeOne(digits[i+1], exps[i+1])
			o[i+2] = DecodeOne(digits[i+2], exps[i+2])
			o[i+3] = DecodeOne(digits[i+3], exps[i+3])
			continue
		}
		for j := i; j < i+4; j++ {
			if exps[j] == ExceptionExponent {
				o[j] = patches[pi]
				pi++
			} else {
				o[j] = DecodeOne(digits[j], exps[j])
			}
		}
	}
	for ; i < n; i++ {
		if exps[i] == ExceptionExponent {
			o[i] = patches[pi]
			pi++
		} else {
			o[i] = DecodeOne(digits[i], exps[i])
		}
	}
	_ = patchIdx
	return dst
}

// DecodeOne reconstructs the double of one non-patch position: digits
// times 10^-exp, exp in [0, MaxExponent].
func DecodeOne(digits, exp int32) float64 {
	if digits < 0 {
		return -(float64(-digits) * frac10[exp])
	}
	return float64(digits) * frac10[exp]
}

// DecodeScalar is the naive per-element decoder used for the §6.8
// scalar-ablation experiments.
func DecodeScalar(dst []float64, digits, exps []int32, patches []float64) []float64 {
	pi := 0
	for i := range digits {
		if exps[i] == ExceptionExponent {
			dst = append(dst, patches[pi])
			pi++
			continue
		}
		dst = append(dst, DecodeOne(digits[i], exps[i]))
	}
	return dst
}
