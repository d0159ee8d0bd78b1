package core

import (
	"math"

	"btrblocks/coldata"
)

// CompressIntAs forces a specific root scheme (sub-streams still go
// through normal selection). Returns nil if the scheme is not applicable
// to the data (e.g. OneValue on a multi-value block). Used by the
// sampling-accuracy experiments, which need the exhaustive-best scheme as
// ground truth.
func CompressIntAs(dst []byte, src []int32, code Code, cfg *Config) []byte {
	if !intApplicable(code, src) {
		return nil
	}
	c := cfg.forCompress()
	p := borrow(&c.Scratch.ints)
	defer giveBack(&c.Scratch.ints, p)
	return encodeIntAs(dst, src, p, code, &c, c.MaxCascadeDepth, c.rng())
}

// CompressDoubleAs is CompressIntAs for doubles.
func CompressDoubleAs(dst []byte, src []float64, code Code, cfg *Config) []byte {
	if !doubleApplicable(code, src) {
		return nil
	}
	c := cfg.forCompress()
	p := borrow(&c.Scratch.doubles)
	defer giveBack(&c.Scratch.doubles, p)
	return encodeDoubleAs(dst, src, p, code, &c, c.MaxCascadeDepth, c.rng())
}

// CompressStringAs is CompressIntAs for strings.
func CompressStringAs(dst []byte, src coldata.Strings, code Code, cfg *Config) []byte {
	if !stringApplicable(code, src) {
		return nil
	}
	c := cfg.forCompress()
	p := borrow(&c.Scratch.strs)
	defer giveBack(&c.Scratch.strs, p)
	return encodeStringAs(dst, src, p, code, &c, c.MaxCascadeDepth, c.rng())
}

// IntSchemes lists every root scheme applicable to integer blocks.
func IntSchemes() []Code { return append([]Code{CodeUncompressed}, intPoolOrder...) }

// DoubleSchemes lists every root scheme applicable to double blocks.
func DoubleSchemes() []Code { return append([]Code{CodeUncompressed}, doublePoolOrder...) }

// StringSchemes lists every root scheme applicable to string blocks.
func StringSchemes() []Code { return append([]Code{CodeUncompressed}, stringPoolOrder...) }

func intApplicable(code Code, src []int32) bool {
	if len(src) == 0 {
		return code == CodeUncompressed
	}
	switch code {
	case CodeOneValue:
		for _, v := range src {
			if v != src[0] {
				return false
			}
		}
	case CodeRLE, CodeDict, CodeFrequency, CodeFastBP, CodeFastPFOR, CodeUncompressed:
	default:
		return false
	}
	return true
}

func doubleApplicable(code Code, src []float64) bool {
	if len(src) == 0 {
		return code == CodeUncompressed
	}
	switch code {
	case CodeOneValue:
		first := math.Float64bits(src[0])
		for _, v := range src {
			if math.Float64bits(v) != first {
				return false
			}
		}
	case CodeRLE, CodeDict, CodeFrequency, CodePDE, CodeUncompressed:
	default:
		return false
	}
	return true
}

func stringApplicable(code Code, src coldata.Strings) bool {
	if src.Len() == 0 {
		return code == CodeUncompressed
	}
	switch code {
	case CodeOneValue:
		first := src.At(0)
		for i := 1; i < src.Len(); i++ {
			if src.At(i) != first {
				return false
			}
		}
	case CodeDict, CodeFSST, CodeUncompressed:
	default:
		return false
	}
	return true
}
