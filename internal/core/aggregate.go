package core

// The aggregate kernel: Count/Sum/Min/Max computed over one compressed
// stream without materializing the column where the stream's scheme entry
// has an aggregate path (OneValue, RLE, Dict, Frequency); other streams
// decode and fold.
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
	return t.aggregate(src, acc, st.orDiscard(), cfg)
}

func (t *Numeric[T, K]) aggregate(src []byte, acc Folder[T], st *SelectStats, cfg *Config) (int, error) {
	e, n, err := head(&t.schemes, src, cfg)
	if err != nil {
		return 0, err
	}
	if e.aggregate != nil {
		return e.aggregate(src, n, acc, st, cfg)
	}
	values, used, err := e.decode(t.buf(cfg.Scratch), src, n, cfg)
	defer t.putBuf(cfg.Scratch, values)
	if err != nil {
		return 0, err
	}
	st.AggDecoded.Add(1)
	acc.foldAll(values)
	return used, nil
}
