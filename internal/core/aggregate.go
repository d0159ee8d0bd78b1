package core

import "math/bits"

// The aggregate kernel: Count/Sum/Min/Max computed over one compressed
// stream, restricted to a block-local selection (nil: every row), without
// materializing the column. OneValue folds its value once per selected
// row, RLE once per run (the selected rows of the run), Frequency its top
// value per span and its exceptions through the rows selected among them,
// and Dict the dictionary entries of the selected codes. Under a
// selection, FastBP and Pseudodecimal read only the selected rows out of
// their packed blocks and sub-streams (take); other streams decode and
// fold the selected rows.
//
// Determinism contract (the differential oracle depends on it): every
// path folds values with the same Fold/FoldRun operations a naive
// decode-then-fold evaluation would use, in the same row order within a
// block. Integer folds are exact (wrapping int64 addition is commutative,
// and a run's v*l equals l repeated additions mod 2^64), so integer fast
// paths may reorder freely. Float folds are order-sensitive, so the
// double paths walk rows in order even when the scheme could shortcut —
// they still skip materialization, which is the point: l selected copies
// of one value folded in a row are FoldRun(v, l). Min/Max are seeded from
// the first folded value; for doubles that means a leading NaN poisons
// Min/Max (later comparisons against NaN are false), and Sum includes
// NaNs — both documented, both identical to the naive fold. Count counts
// every selected row (NULL handling is the caller's job: the kernel sees
// the physical stream, and a caller clears NULL rows from the selection).
// A zero Count leaves Sum/Min/Max at their zero values.

// Folder is the accumulator the aggregate kernel folds a stream into:
// *Agg[T] for the integers, *DoubleAgg for doubles.
type Folder[T numeric] interface {
	// FoldRun accumulates a run of l copies of v.
	FoldRun(v T, l int)
	foldAll(vals []T)
	// foldDict folds dict[c] for every code, reporting false on a code
	// outside the dictionary.
	foldDict(dict []T, codes []int32) bool
}

// Agg accumulates Count/Sum/Min/Max over integer values.
type Agg[T integer] struct {
	Count int
	Sum   int64
	Min   T
	Max   T
}

// Fold accumulates one value.
func (a *Agg[T]) Fold(v T) { a.FoldRun(v, 1) }

// FoldRun accumulates a run of l copies of v.
func (a *Agg[T]) FoldRun(v T, l int) {
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
	a.Sum += int64(v) * int64(l)
	a.Count += l
}

func (a *Agg[T]) foldAll(vals []T) {
	if len(vals) == 0 {
		return
	}
	if a.Count == 0 {
		a.Min, a.Max = vals[0], vals[0]
	}
	lo, hi, sum := a.Min, a.Max, a.Sum
	for _, v := range vals {
		lo, hi, sum = min(lo, v), max(hi, v), sum+int64(v)
	}
	a.Min, a.Max, a.Sum, a.Count = lo, hi, sum, a.Count+len(vals)
}

func (a *Agg[T]) foldDict(dict []T, codes []int32) bool {
	for _, c := range codes {
		if uint32(c) >= uint32(len(dict)) {
			return false
		}
		a.Fold(dict[c])
	}
	return true
}

// Aggregate folds the rows of one compressed stream that sel holds — a
// block-local bitset, bit i for value i; nil means every row — into acc,
// without materializing where the scheme allows. Returns the bytes
// consumed. st may be nil.
func (t *Numeric[T, K]) Aggregate(src []byte, sel []uint64, acc Folder[T], st *SelectStats, cfg *Config) (int, error) {
	st = st.orDiscard()
	e, n, err := selHead(&t.schemes, src, sel, cfg)
	if err != nil {
		return 0, err
	}
	if e.aggregate != nil {
		return e.aggregate(src, n, sel, acc, st, cfg)
	}
	values, used, err := t.takeFrom(e, t.buf(cfg.Scratch), src, n, sel, cfg)
	defer t.putBuf(cfg.Scratch, values)
	if err != nil {
		return 0, err
	}
	if sel != nil && e.take != nil {
		st.AggFast.Add(1)
	} else {
		st.AggDecoded.Add(1)
	}
	acc.foldAll(values)
	return used, nil
}

// take appends to dst, in row order, the values of the rows sel holds
// (every row when sel is nil) of a stream that must hold n values, and
// returns the bytes the stream takes: the sub-stream reader of the folds.
func (t *Numeric[T, K]) take(dst []T, src []byte, n int, sel []uint64, cfg *Config) ([]T, int, error) {
	e, got, err := selHead(&t.schemes, src, sel, cfg)
	if err != nil || got != n {
		return dst, 0, ErrCorrupt
	}
	return t.takeFrom(e, dst, src, n, sel, cfg)
}

// takeFrom is take past the stream's head: the scheme's own take under a
// selection where it has one, and otherwise a decode (into an arena
// buffer, under a selection, that the selected values are copied out of).
func (t *Numeric[T, K]) takeFrom(e *numScheme[T, K], dst []T, src []byte, n int, sel []uint64, cfg *Config) ([]T, int, error) {
	switch {
	case sel == nil:
		return e.decode(dst, src, n, cfg)
	case e.take != nil:
		return e.take(dst, src, n, sel, cfg)
	}
	values, used, err := e.decode(t.buf(cfg.Scratch), src, n, cfg)
	defer t.putBuf(cfg.Scratch, values)
	if err != nil {
		return dst, 0, err
	}
	return appendSelected(dst, values, sel), used, nil
}

// appendSelected appends vals[i] for every bit i of sel, in order.
func appendSelected[T any](dst, vals []T, sel []uint64) []T {
	for w, m := range sel[:min(len(sel), (len(vals)+63)/64)] {
		dst = appendMasked(dst, vals[64*w:min(len(vals), 64*w+64)], m)
	}
	return dst
}

// appendMasked appends every value of vals (at most 64) whose bit is set
// in m: bit by bit where m has few, and otherwise by writing every value
// and advancing past the selected ones.
func appendMasked[T any](dst, vals []T, m uint64) []T {
	if bits.OnesCount64(m) < 16 {
		for ; m != 0; m &= m - 1 {
			if j := bits.TrailingZeros64(m); j < len(vals) {
				dst = append(dst, vals[j])
			}
		}
		return dst
	}
	k := len(dst)
	dst = grow(dst, len(vals))
	for j, v := range vals {
		dst[k] = v
		k += int(m >> j & 1)
	}
	return dst[:k]
}

// onesIn counts the bits of sel in [lo, hi); a nil sel holds every
// row.
func onesIn(sel []uint64, lo, hi int) (n int) {
	if sel == nil {
		return hi - lo
	}
	for lo < hi {
		s := lo % 64
		k := min(hi-lo, 64-s)
		n += bits.OnesCount64(sel[lo/64] >> s & (^uint64(0) >> (64 - k)))
		lo += k
	}
	return n
}
