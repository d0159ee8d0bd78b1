package core

import (
	"encoding/binary"
	"math"
	"slices"
)

// What doubles do not share with the integers: runs and predicates that
// compare by bit pattern, and a fold whose sum rounds. Pseudodecimal
// Encoding is in pde.go.

func putDoubles(dst []byte, src []float64) []byte {
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func getDoubles(dst []float64, src []byte) []float64 {
	for ; len(src) >= 8; src = src[8:] {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(src)))
	}
	return dst
}

// runsOfDoubles is runsOf by bit equality, so NaN runs and the -0.0/0.0
// distinction survive the round trip.
func runsOfDoubles(src []float64) (values []float64, lengths []int32) {
	if len(src) == 0 {
		return nil, nil
	}
	cur, n := math.Float64bits(src[0]), int32(0)
	for _, v := range src {
		if math.Float64bits(v) == cur {
			n++
			continue
		}
		values = append(values, math.Float64frombits(cur))
		lengths = append(lengths, n)
		cur, n = math.Float64bits(v), 1
	}
	return append(values, math.Float64frombits(cur)), append(lengths, n)
}

// DoublePred is a predicate over float64 values. Eq and In compare
// bit-exactly (NaN payloads and -0.0 vs 0.0 are distinct, the identity the
// compressor keeps); Range uses ordinary float comparison, so NaN never
// matches a range.
type DoublePred struct {
	Op     PredOp
	Eq     float64
	Lo, Hi float64
	In     []float64
	inBits []uint64 // sorted bit patterns of In, built by Normalize
}

// DoubleEq is the predicate matching doubles bit-exactly equal to v.
func DoubleEq(v float64) *DoublePred { return &DoublePred{Op: PredEq, Eq: v} }

// Normalize prepares the bit-pattern set for In matching.
func (p *DoublePred) Normalize() {
	if p.Op != PredIn {
		return
	}
	p.inBits = p.inBits[:0]
	for _, v := range p.In {
		p.inBits = append(p.inBits, math.Float64bits(v))
	}
	slices.Sort(p.inBits)
	p.inBits = slices.Compact(p.inBits)
}

// Match reports whether v satisfies the predicate.
func (p *DoublePred) Match(v float64) bool {
	switch p.Op {
	case PredEq:
		return math.Float64bits(v) == math.Float64bits(p.Eq)
	case PredRange:
		return v >= p.Lo && v <= p.Hi
	default:
		_, ok := slices.BinarySearch(p.inBits, math.Float64bits(v))
		return ok
	}
}

func (p *DoublePred) filter(vals []float64, sel []uint64) int {
	return gatherWords(len(vals), func(i int) bool { return p.Match(vals[i]) }, sel)
}

// codes maps p over a double dictionary (sorted by bit pattern, not
// numerically) by testing every entry.
func (p *DoublePred) codes(dict []float64) *Pred[int32] {
	var codes []int32
	for i, v := range dict {
		if p.Match(v) {
			codes = append(codes, int32(i))
		}
	}
	return codesPredFromSorted(codes)
}

// DoubleAgg accumulates Count/Sum/Min/Max over float64 values. Folds are
// order-sensitive for floats; every evaluation path (compressed-domain and
// decode) folds in row order so results are bit-identical.
type DoubleAgg struct {
	Count int
	Sum   float64
	Min   float64
	Max   float64
}

// Fold accumulates one value.
func (a *DoubleAgg) Fold(v float64) { a.FoldRun(v, 1) }

// FoldRun accumulates a run of l copies of v: l additions, since v*l
// rounds differently. A NaN that meets an empty accumulator poisons
// Min/Max, as in a naive fold.
func (a *DoubleAgg) FoldRun(v float64, l int) {
	if l <= 0 {
		return
	}
	if a.Count == 0 {
		a.Min, a.Max = v, v
	} else {
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	for i := 0; i < l; i++ {
		a.Sum += v
	}
	a.Count += l
}

// foldAll folds vals in order: Fold per value, with the accumulator in
// locals.
func (a *DoubleAgg) foldAll(vals []float64) {
	if len(vals) == 0 {
		return
	}
	if a.Count == 0 {
		a.Min, a.Max = vals[0], vals[0]
	}
	lo, hi, sum := a.Min, a.Max, a.Sum
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		sum += v
	}
	a.Min, a.Max, a.Sum, a.Count = lo, hi, sum, a.Count+len(vals)
}

func (a *DoubleAgg) foldDict(dict []float64, codes []int32) bool {
	for _, c := range codes {
		if uint32(c) >= uint32(len(dict)) {
			return false
		}
		a.Fold(dict[c])
	}
	return true
}
