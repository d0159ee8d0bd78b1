package bitpack

// The compare kernels: a full 128-value block of 32 bits or less compared
// with a predicate straight from its packed words, without unpacking it
// (compare32_gen.go). They serve the compressed-domain selection of
// FastBP blocks; a block of int64 deltas of width 32 or less packs the
// same way and is served too.

// MaxSetWidth is the widest block CompareSet serves.
const MaxSetWidth = 12

// CompareRange tests the 128 values x of one full block packed at width w
// (at most 32; src holds at least 16*w bytes) against the unsigned range
// x-lo <= span, computed mod 2^64, and returns the matches as two words:
// bit i of m0 for value i < 64, bit i-64 of m1 for the rest.
func CompareRange(src []byte, w uint, lo, span uint64) (m0, m1 uint64) {
	// The values lie in [0, top]: the range, a circular interval, meets
	// them in at most two intervals [a, a+c] of their own.
	top := uint64(1)<<w - 1
	end := lo + span // below lo when the range wraps
	switch {
	case lo <= top && end >= lo:
		return compareRange32[w](src, int64(lo), int64(min(span, top-lo)))
	case lo <= top:
		m0, m1 = compareRange32[w](src, int64(lo), int64(top-lo))
		w0, w1 := compareRange32[w](src, 0, int64(min(end, top)))
		return m0 | w0, m1 | w1
	case end < lo:
		return compareRange32[w](src, 0, int64(min(end, top)))
	}
	return 0, 0
}

// CompareSet is CompareRange for a set, at width at most MaxSetWidth:
// value x matches when bit x of set is.
func CompareSet(src []byte, w uint, set *[64]uint64) (m0, m1 uint64) {
	return compareSet32[w](src, set)
}
