package core

// The aggregate kernel: Count/Sum/Min/Max computed over one compressed
// stream without materializing the column where the scheme allows it —
// OneValue answers in O(1), RLE folds per run, Dict folds dictionary
// entries through the codes stream, Frequency splits into the top value
// and the exceptions. Terminal bit-packed streams decode and fold.
//
// Determinism contract (the differential oracle depends on it): every
// path folds values with the same Fold/FoldRun operations a naive
// decode-then-fold evaluation would use, in the same row order within a
// block. Integer folds are exact (wrapping int64 addition is commutative,
// and a run's v*l equals l repeated additions mod 2^64), so integer fast
// paths may reorder freely. Float folds are order-sensitive, so the
// double paths walk rows in order even when the scheme could shortcut —
// they still skip materialization, which is the point. Min/Max are seeded
// from the first folded value; for doubles that means a leading NaN
// poisons Min/Max (later comparisons against NaN are false), and Sum
// includes NaNs — both documented, both identical to the naive fold.
// Count counts every row (NULL handling is the caller's job: the kernel
// sees the physical stream). A zero Count leaves Sum/Min/Max at their
// zero values.

// Folder is the accumulator the aggregate kernel folds a stream into:
// *Agg[T] for the integers, *DoubleAgg for doubles.
type Folder[T numeric] interface {
	// FoldRun accumulates a run of l copies of v.
	FoldRun(v T, l int)
	foldAll(vals []T)
	// foldDict folds dict[c] for every code, reporting false on a code
	// outside the dictionary.
	foldDict(dict []T, codes []int32) bool
	rows() int
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

func (a *Agg[T]) rows() int { return a.Count }

func (a *Agg[T]) foldAll(vals []T) {
	for _, v := range vals {
		a.Fold(v)
	}
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

// Aggregate folds one compressed stream into acc without materializing
// where the scheme allows. Returns the bytes consumed. st may be nil.
func (t *Numeric[T, K]) Aggregate(src []byte, acc Folder[T], st *SelectStats, cfg *Config) (int, error) {
	c := cfg.normalized()
	return t.aggregate(src, acc, st.orDiscard(), &c)
}

func (t *Numeric[T, K]) aggregate(src []byte, acc Folder[T], st *SelectStats, cfg *Config) (int, error) {
	if len(src) < 1 {
		return 0, ErrCorrupt
	}
	switch Code(src[0]) {
	case CodeOneValue:
		n, v, err := t.oneValue(src, cfg)
		if err != nil {
			return 0, err
		}
		st.AggFast.Add(1)
		acc.FoldRun(v, n)
		return 5 + t.width, nil
	case CodeRLE:
		_, values, lengths, used, err := t.runParts(src, cfg)
		if err != nil {
			return 0, err
		}
		defer t.putBuf(cfg.Scratch, values)
		defer Int.putBuf(cfg.Scratch, lengths)
		st.AggFast.Add(1)
		for i, rv := range values {
			acc.FoldRun(rv, int(lengths[i]))
		}
		return used, nil
	case CodeDict:
		dict, codes, used, err := t.dictParts(src, cfg)
		if err != nil {
			return 0, err
		}
		defer t.putBuf(cfg.Scratch, dict)
		defer Int.putBuf(cfg.Scratch, codes)
		st.AggFast.Add(1)
		if !acc.foldDict(dict, codes) {
			return 0, ErrCorrupt
		}
		return used, nil
	case CodeFrequency:
		n, top, bm, pos, err := t.frequencyHead(src, cfg)
		if err != nil {
			return 0, err
		}
		if !t.rowOrder {
			before := acc.rows()
			used, err := t.aggregate(src[pos:], acc, st, cfg)
			if err != nil {
				return 0, err
			}
			if bm.Cardinality()+acc.rows()-before != n {
				return 0, ErrCorrupt
			}
			st.AggFast.Add(1)
			acc.FoldRun(top, bm.Cardinality())
			return pos + used, nil
		}
		// A row-order fold needs the exception values themselves, not a
		// recursive aggregate: decode the (small) exceptions stream and
		// interleave with the top-value bitmap in position order.
		exc, used, err := t.decompress(t.buf(cfg.Scratch), src[pos:], cfg)
		defer t.putBuf(cfg.Scratch, exc)
		if err != nil {
			return 0, err
		}
		if bm.Cardinality()+len(exc) != n {
			return 0, ErrCorrupt
		}
		st.AggFast.Add(1)
		err = frequencySpans(n, bm, func(lo, hi int, isTop bool) {
			if isTop {
				acc.FoldRun(top, hi-lo)
				return
			}
			acc.foldAll(exc[:hi-lo])
			exc = exc[hi-lo:]
		})
		return pos + used, err
	}
	values, used, err := t.decompress(t.buf(cfg.Scratch), src, cfg)
	defer t.putBuf(cfg.Scratch, values)
	if err != nil {
		return 0, err
	}
	st.AggDecoded.Add(1)
	acc.foldAll(values)
	return used, nil
}
