package btrblocks

import (
	"bytes"
	"context"
	"fmt"

	"btrblocks/internal/core"
	"btrblocks/internal/parallel"
	"btrblocks/internal/roaring"
)

// This file generalizes the §7 count-eq pushdown from counts to selection
// vectors and aggregates: Eq/Range/In/NotNull predicates evaluate per
// block directly on the compressed representation where the scheme allows
// (dictionary code mapping, FOR min-max block skipping, RLE run walks,
// OneValue/Frequency short-circuits — see internal/core/select.go),
// producing roaring-backed Selections that compose with And/Or for
// multi-column plans, plus Count/Sum/Min/Max aggregates folded from
// compressed streams without materializing. Plan parsing, metadata-based
// block pruning, and the serving endpoints live in internal/query; this
// layer owns single-column evaluation over one column file.
//
// NULL semantics: value predicates (Eq/Range/In) never select NULL slots
// — the compressor rewrites NULL slot contents, so each NULL-bearing
// block's matches are corrected with the block's NULL bitmap after the
// compressed-domain kernel runs. NotNull selects exactly the non-NULL
// rows. Aggregates fold only non-NULL rows; an aggregate that folded
// zero rows reports Count 0 and zero values for every other field.

// pathQuery names the query engine's worker-pool path in telemetry.
const pathQuery = "query"

// SelectStats reports which evaluation paths fired during a Select or
// Aggregate call — the proof hook for "this predicate never decoded".
type SelectStats = core.SelectStatsSnapshot

type predKind uint8

const (
	predValue predKind = iota
	predNotNull
)

// Predicate is a single-column predicate: a typed Eq/Range/In comparison
// or a NotNull test. Build one with the constructors below.
type Predicate struct {
	kind    predKind
	typ     Type
	intP    *core.Pred[int32]
	int64P  *core.Pred[int64]
	doubleP *core.DoublePred
	strP    *core.StringPred
}

// IntEq matches int32 values equal to v.
func IntEq(v int32) Predicate {
	return Predicate{typ: TypeInt, intP: &core.Pred[int32]{Op: core.PredEq, Eq: v}}
}

// IntRange matches int32 values in [lo, hi] (inclusive).
func IntRange(lo, hi int32) Predicate {
	return Predicate{typ: TypeInt, intP: &core.Pred[int32]{Op: core.PredRange, Lo: lo, Hi: hi}}
}

// IntIn matches int32 values in the given set; an empty set matches
// nothing.
func IntIn(vs ...int32) Predicate {
	p := &core.Pred[int32]{Op: core.PredIn, In: append([]int32(nil), vs...)}
	p.Normalize()
	return Predicate{typ: TypeInt, intP: p}
}

// Int64Eq matches int64 values equal to v.
func Int64Eq(v int64) Predicate {
	return Predicate{typ: TypeInt64, int64P: &core.Pred[int64]{Op: core.PredEq, Eq: v}}
}

// Int64Range matches int64 values in [lo, hi] (inclusive).
func Int64Range(lo, hi int64) Predicate {
	return Predicate{typ: TypeInt64, int64P: &core.Pred[int64]{Op: core.PredRange, Lo: lo, Hi: hi}}
}

// Int64In matches int64 values in the given set.
func Int64In(vs ...int64) Predicate {
	p := &core.Pred[int64]{Op: core.PredIn, In: append([]int64(nil), vs...)}
	p.Normalize()
	return Predicate{typ: TypeInt64, int64P: p}
}

// DoubleEq matches doubles bit-exactly equal to v (NaN matches NaN of the
// same payload; 0.0 and -0.0 are distinct), mirroring CountEqualDouble.
func DoubleEq(v float64) Predicate {
	return Predicate{typ: TypeDouble, doubleP: &core.DoublePred{Op: core.PredEq, Eq: v}}
}

// DoubleRange matches doubles in [lo, hi] by float comparison; NaN never
// matches a range.
func DoubleRange(lo, hi float64) Predicate {
	return Predicate{typ: TypeDouble, doubleP: &core.DoublePred{Op: core.PredRange, Lo: lo, Hi: hi}}
}

// DoubleIn matches doubles bit-exactly equal to any set member.
func DoubleIn(vs ...float64) Predicate {
	p := &core.DoublePred{Op: core.PredIn, In: append([]float64(nil), vs...)}
	p.Normalize()
	return Predicate{typ: TypeDouble, doubleP: p}
}

// StringEq matches strings equal to v.
func StringEq(v string) Predicate {
	return Predicate{typ: TypeString, strP: &core.StringPred{Op: core.PredEq, Eq: []byte(v)}}
}

// StringRange matches strings lexicographically in [lo, hi] (inclusive).
func StringRange(lo, hi string) Predicate {
	return Predicate{typ: TypeString, strP: &core.StringPred{Op: core.PredRange, Lo: []byte(lo), Hi: []byte(hi)}}
}

// StringIn matches strings equal to any set member.
func StringIn(vs ...string) Predicate {
	in := make([][]byte, len(vs))
	for i, v := range vs {
		in[i] = []byte(v)
	}
	p := &core.StringPred{Op: core.PredIn, In: in}
	p.Normalize()
	return Predicate{typ: TypeString, strP: p}
}

// NotNull matches every non-NULL row. It applies to a column of any type.
func NotNull() Predicate {
	return Predicate{kind: predNotNull}
}

// Type returns the column type the predicate compares against; typed is
// false for NotNull, which applies to any column.
func (p Predicate) Type() (typ Type, typed bool) {
	return p.typ, p.kind == predValue
}

// Selection is a set of selected row ids within one column (or one
// chunk's shared row space). It wraps a roaring bitmap; the zero value is
// an empty selection. Set operations return new Selections and leave the
// operands untouched.
type Selection struct {
	bm *roaring.Bitmap
}

// NewSelection returns an empty selection.
func NewSelection() Selection { return Selection{bm: roaring.New()} }

// SelectionOfRows builds a selection holding exactly the given rows.
func SelectionOfRows(rows ...uint32) Selection {
	s := NewSelection()
	for _, r := range rows {
		s.bm.Add(r)
	}
	return s
}

// SelectionFromBitmap wraps an existing bitmap (shared, not copied).
func SelectionFromBitmap(bm *roaring.Bitmap) Selection { return Selection{bm: bm} }

// Bitmap exposes the underlying bitmap (nil for a zero-value Selection).
func (s Selection) Bitmap() *roaring.Bitmap { return s.bm }

// Cardinality returns the number of selected rows.
func (s Selection) Cardinality() int {
	if s.bm == nil {
		return 0
	}
	return s.bm.Cardinality()
}

// IsEmpty reports whether no rows are selected.
func (s Selection) IsEmpty() bool { return s.bm == nil || s.bm.IsEmpty() }

// Contains reports whether row is selected.
func (s Selection) Contains(row uint32) bool { return s.bm != nil && s.bm.Contains(row) }

// Rows returns the selected row ids in ascending order.
func (s Selection) Rows() []uint32 {
	if s.bm == nil {
		return nil
	}
	return s.bm.ToArray()
}

// ForEach visits selected rows in ascending order until fn returns false.
func (s Selection) ForEach(fn func(row uint32) bool) {
	if s.bm != nil {
		s.bm.ForEach(fn)
	}
}

func (s Selection) orEmpty() *roaring.Bitmap {
	if s.bm == nil {
		return roaring.New()
	}
	return s.bm
}

// And intersects two selections.
func (s Selection) And(o Selection) Selection {
	return Selection{bm: roaring.And(s.orEmpty(), o.orEmpty())}
}

// Or unions two selections.
func (s Selection) Or(o Selection) Selection {
	return Selection{bm: roaring.Or(s.orEmpty(), o.orEmpty())}
}

// AndNot returns the rows in s but not in o.
func (s Selection) AndNot(o Selection) Selection {
	return Selection{bm: roaring.AndNot(s.orEmpty(), o.orEmpty())}
}

// Clone returns an independent copy.
func (s Selection) Clone() Selection { return Selection{bm: s.orEmpty().Clone()} }

// Equals reports set equality.
func (s Selection) Equals(o Selection) bool { return s.orEmpty().Equals(o.orEmpty()) }

// AppendTo serializes the selection (the roaring wire format, also used
// by the query endpoints to ship selections between processes).
func (s Selection) AppendTo(dst []byte) []byte { return s.orEmpty().AppendTo(dst) }

// SelectionFromBytes deserializes a selection, returning bytes consumed.
func SelectionFromBytes(src []byte) (Selection, int, error) {
	bm, used, err := roaring.FromBytes(src)
	if err != nil {
		return Selection{}, 0, err
	}
	return Selection{bm: bm}, used, nil
}

// Select evaluates p over every block of an indexed column file and
// returns the selected row ids. data must be the buffer the index was
// parsed from.
func (ix *ColumnIndex) Select(data []byte, p Predicate, opt *Options) (Selection, SelectStats, error) {
	return ix.SelectContext(context.Background(), data, p, opt)
}

// SelectContext is Select with a caller context (cancellation + spans).
func (ix *ColumnIndex) SelectContext(ctx context.Context, data []byte, p Predicate, opt *Options) (Selection, SelectStats, error) {
	return ix.SelectBlocksContext(ctx, data, p, nil, opt)
}

// SelectBlocksContext is SelectContext restricted to the given block ids
// (nil = all blocks): rows of unlisted blocks are never selected and
// their bytes are never touched — the hook metadata-based pruning plugs
// into. Blocks are evaluated on the worker pool; per-block results merge
// in block order so the output is identical at every worker count.
func (ix *ColumnIndex) SelectBlocksContext(ctx context.Context, data []byte, p Predicate, blocks []int, opt *Options) (Selection, SelectStats, error) {
	var stats core.SelectStats
	if p.kind == predValue && p.typ != ix.Type {
		return Selection{}, stats.Snapshot(), ErrTypeMismatch
	}
	if blocks == nil {
		blocks = allBlocks(ix)
	}
	base := opt.coreConfig()
	rec := opt.telemetryRecorder()
	parts := make([]*roaring.Bitmap, len(blocks))
	err := parallel.Observed(ctx, len(blocks), parallelism(opt), pathQuery, observerOf(rec), func(i int) error {
		b := blocks[i]
		if b < 0 || b >= len(ix.Blocks) {
			return fmt.Errorf("btrblocks: query block %d out of range [0,%d)", b, len(ix.Blocks))
		}
		ref := ix.Blocks[b]
		if ref.End() > len(data) {
			return ErrTruncatedFile
		}
		if err := ix.VerifyBlock(data, b); err != nil {
			rec.RecordCorruption(1)
			return err
		}
		nulls, err := blockNulls(ix, data, b)
		if err != nil {
			return err
		}
		local := roaring.New()
		if p.kind == predNotNull {
			local.AddRange(0, uint32(ref.Rows))
		} else {
			cfg := *base
			cfg.MaxDecodedValues = ref.Rows
			stream := data[ref.DataOffset():ref.End()]
			var used int
			switch ix.Type {
			case TypeInt:
				used, err = core.Int.Select(stream, p.intP, 0, local, &stats, &cfg)
			case TypeInt64:
				used, err = core.Int64.Select(stream, p.int64P, 0, local, &stats, &cfg)
			case TypeDouble:
				used, err = core.Double.Select(stream, p.doubleP, 0, local, &stats, &cfg)
			case TypeString:
				used, err = core.SelectString(stream, p.strP, 0, local, &stats, &cfg)
			}
			if err != nil {
				return err
			}
			if used != ref.DataBytes {
				return ErrCorrupt
			}
		}
		// NULL slots are rewritten by the compressor, so whatever the
		// kernel decided about them is meaningless: subtract the NULL
		// bitmap. This is the post-hoc correction that keeps the
		// compressed-domain paths usable on NULL-bearing blocks.
		if nulls != nil {
			nulls.ForEach(func(v uint32) bool {
				local.Remove(v)
				return true
			})
		}
		parts[i] = local
		return nil
	})
	if err != nil {
		return Selection{}, stats.Snapshot(), err
	}
	out := roaring.New()
	for i, part := range parts {
		start := uint32(ix.Blocks[blocks[i]].StartRow)
		// Selected rows cluster into runs; shifting whole runs via
		// AddRange is far cheaper than one sorted-insert per row.
		part.ForEachRange(func(lo, hi uint64) bool {
			out.AddRange(start+uint32(lo), start+uint32(hi))
			return true
		})
	}
	return Selection{bm: out}, stats.Snapshot(), nil
}

// Aggregate is the Count/Sum/Min/Max fold over a column (or a selected
// subset of it). Count is the number of non-NULL rows folded; when it is
// zero every other field holds its zero value. Integer columns fill the
// Int fields (exact, wrapping int64 arithmetic); double columns fill the
// Float fields with the row-order fold (a NaN poisons Sum, and a leading
// NaN poisons Min/Max — identical to a naive sequential fold); string
// columns fill StrMin/StrMax lexicographically.
type Aggregate struct {
	Type     Type    `json:"type"`
	Count    int64   `json:"count"`
	IntSum   int64   `json:"int_sum,omitempty"`
	IntMin   int64   `json:"int_min,omitempty"`
	IntMax   int64   `json:"int_max,omitempty"`
	FloatSum float64 `json:"float_sum,omitempty"`
	FloatMin float64 `json:"float_min,omitempty"`
	FloatMax float64 `json:"float_max,omitempty"`
	StrMin   string  `json:"str_min,omitempty"`
	StrMax   string  `json:"str_max,omitempty"`
}

// FoldInt folds one int32 value.
func (a *Aggregate) FoldInt(v int32) { a.FoldInt64(int64(v)) }

// FoldInt64 folds one int64 value.
func (a *Aggregate) FoldInt64(v int64) {
	if a.Count == 0 {
		a.IntMin, a.IntMax = v, v
	} else {
		if v < a.IntMin {
			a.IntMin = v
		}
		if v > a.IntMax {
			a.IntMax = v
		}
	}
	a.IntSum += v
	a.Count++
}

// FoldDouble folds one double value (row-order sensitive).
func (a *Aggregate) FoldDouble(v float64) {
	if a.Count == 0 {
		a.FloatMin, a.FloatMax = v, v
	} else {
		if v < a.FloatMin {
			a.FloatMin = v
		}
		if v > a.FloatMax {
			a.FloatMax = v
		}
	}
	a.FloatSum += v
	a.Count++
}

// FoldString folds one string value.
func (a *Aggregate) FoldString(v []byte) {
	if a.Count == 0 {
		a.StrMin, a.StrMax = string(v), string(v)
	} else {
		if bytes.Compare(v, []byte(a.StrMin)) < 0 {
			a.StrMin = string(v)
		}
		if bytes.Compare(v, []byte(a.StrMax)) > 0 {
			a.StrMax = string(v)
		}
	}
	a.Count++
}

// Merge combines another aggregate of the same type into a (block
// order matters for the float fields' NaN semantics, so merge partial
// results in block order).
func (a *Aggregate) Merge(o Aggregate) {
	if o.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = o
		return
	}
	a.Count += o.Count
	a.IntSum += o.IntSum
	if o.IntMin < a.IntMin {
		a.IntMin = o.IntMin
	}
	if o.IntMax > a.IntMax {
		a.IntMax = o.IntMax
	}
	a.FloatSum += o.FloatSum
	if o.FloatMin < a.FloatMin {
		a.FloatMin = o.FloatMin
	}
	if o.FloatMax > a.FloatMax {
		a.FloatMax = o.FloatMax
	}
	if a.Type == TypeString {
		if o.StrMin < a.StrMin {
			a.StrMin = o.StrMin
		}
		if o.StrMax > a.StrMax {
			a.StrMax = o.StrMax
		}
	}
}

func fromIntAgg[T int32 | int64](typ Type, g core.Agg[T]) Aggregate {
	return Aggregate{Type: typ, Count: int64(g.Count), IntSum: g.Sum, IntMin: int64(g.Min), IntMax: int64(g.Max)}
}

func fromDoubleAgg(g core.DoubleAgg) Aggregate {
	return Aggregate{Type: TypeDouble, Count: int64(g.Count), FloatSum: g.Sum, FloatMin: g.Min, FloatMax: g.Max}
}

// AggregateBlocks folds Count/Sum/Min/Max over the listed blocks (nil =
// all), restricted to sel when non-nil. See AggregateBlocksContext.
func (ix *ColumnIndex) AggregateBlocks(data []byte, blocks []int, sel *Selection, opt *Options) (Aggregate, SelectStats, error) {
	return ix.AggregateBlocksContext(context.Background(), data, blocks, sel, opt)
}

// AggregateBlocksContext folds non-NULL rows of the listed blocks into an
// Aggregate. With no selection, NULL-free numeric blocks fold directly on
// the compressed stream (OneValue in O(1), RLE per run, Frequency by
// split — see internal/core/aggregate.go); blocks with NULLs or a partial
// selection decode and fold the qualifying rows, and string blocks always
// decode. Per-block partials merge in block order, so results are
// identical at every worker count.
func (ix *ColumnIndex) AggregateBlocksContext(ctx context.Context, data []byte, blocks []int, sel *Selection, opt *Options) (Aggregate, SelectStats, error) {
	var stats core.SelectStats
	if blocks == nil {
		blocks = allBlocks(ix)
	}
	base := opt.coreConfig()
	rec := opt.telemetryRecorder()
	locals := localSelections(ix, blocks, sel)
	parts := make([]Aggregate, len(blocks))
	err := parallel.Observed(ctx, len(blocks), parallelism(opt), pathQuery, observerOf(rec), func(i int) error {
		b := blocks[i]
		if b < 0 || b >= len(ix.Blocks) {
			return fmt.Errorf("btrblocks: query block %d out of range [0,%d)", b, len(ix.Blocks))
		}
		ref := ix.Blocks[b]
		if sel != nil && (locals[i] == nil || locals[i].IsEmpty()) {
			return nil // no selected rows in this block; never touch it
		}
		fastEligible := sel == nil && ref.NullBytes == 0 && ix.Type != TypeString
		if fastEligible {
			if ref.End() > len(data) {
				return ErrTruncatedFile
			}
			if err := ix.VerifyBlock(data, b); err != nil {
				rec.RecordCorruption(1)
				return err
			}
			cfg := *base
			cfg.MaxDecodedValues = ref.Rows
			stream := data[ref.DataOffset():ref.End()]
			var (
				agg  Aggregate
				used int
				err  error
			)
			switch ix.Type {
			case TypeInt:
				var g core.Agg[int32]
				used, err = core.Int.Aggregate(stream, &g, &stats, &cfg)
				agg = fromIntAgg(TypeInt, g)
			case TypeInt64:
				var g core.Agg[int64]
				used, err = core.Int64.Aggregate(stream, &g, &stats, &cfg)
				agg = fromIntAgg(TypeInt64, g)
			case TypeDouble:
				var g core.DoubleAgg
				used, err = core.Double.Aggregate(stream, &g, &stats, &cfg)
				agg = fromDoubleAgg(g)
			}
			if err != nil {
				return err
			}
			if used != ref.DataBytes || agg.Count != int64(ref.Rows) {
				return ErrCorrupt
			}
			parts[i] = agg
			return nil
		}
		d := newColumnDecode(ix, data, b, b+1, true)
		if err := decodeColumns(ctx, []*columnDecode{d}, opt, "", false); err != nil {
			return err
		}
		stats.AggDecoded.Add(1)
		agg := Aggregate{Type: ix.Type}
		include := func(r int) bool {
			return !d.col.Nulls.IsNull(r) && (locals[i] == nil || locals[i].Contains(uint32(r)))
		}
		switch ix.Type {
		case TypeInt:
			for r, v := range d.col.Ints {
				if include(r) {
					agg.FoldInt(v)
				}
			}
		case TypeInt64:
			for r, v := range d.col.Ints64 {
				if include(r) {
					agg.FoldInt64(v)
				}
			}
		case TypeDouble:
			for r, v := range d.col.Doubles {
				if include(r) {
					agg.FoldDouble(v)
				}
			}
		case TypeString:
			for r := 0; r < d.views[0].Len(); r++ {
				if include(r) {
					agg.FoldString(d.views[0].Bytes(r))
				}
			}
		}
		parts[i] = agg
		return nil
	})
	if err != nil {
		return Aggregate{}, stats.Snapshot(), err
	}
	total := Aggregate{Type: ix.Type}
	for _, p := range parts {
		total.Merge(p)
	}
	return total, stats.Snapshot(), nil
}

// CountNotNullBlocksContext counts non-NULL rows over the listed blocks
// (nil = all), restricted to sel when non-nil — answered entirely from
// block headers and NULL bitmaps, never touching a data stream.
func (ix *ColumnIndex) CountNotNullBlocksContext(ctx context.Context, data []byte, blocks []int, sel *Selection, opt *Options) (int64, error) {
	if blocks == nil {
		blocks = allBlocks(ix)
	}
	rec := opt.telemetryRecorder()
	locals := localSelections(ix, blocks, sel)
	counts := make([]int64, len(blocks))
	err := parallel.Observed(ctx, len(blocks), parallelism(opt), pathQuery, observerOf(rec), func(i int) error {
		b := blocks[i]
		if b < 0 || b >= len(ix.Blocks) {
			return fmt.Errorf("btrblocks: query block %d out of range [0,%d)", b, len(ix.Blocks))
		}
		ref := ix.Blocks[b]
		if sel != nil && (locals[i] == nil || locals[i].IsEmpty()) {
			return nil
		}
		if ref.End() > len(data) {
			return ErrTruncatedFile
		}
		if err := ix.VerifyBlock(data, b); err != nil {
			rec.RecordCorruption(1)
			return err
		}
		nulls, err := blockNulls(ix, data, b)
		if err != nil {
			return err
		}
		switch {
		case sel == nil && nulls == nil:
			counts[i] = int64(ref.Rows)
		case sel == nil:
			counts[i] = int64(ref.Rows - nulls.Cardinality())
		default:
			n := int64(0)
			locals[i].ForEach(func(v uint32) bool {
				if int(v) < ref.Rows && (nulls == nil || !nulls.Contains(v)) {
					n++
				}
				return true
			})
			counts[i] = n
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	return total, nil
}

func allBlocks(ix *ColumnIndex) []int {
	out := make([]int, len(ix.Blocks))
	for i := range out {
		out[i] = i
	}
	return out
}

// blockNulls parses block b's NULL bitmap, or nil when the block has none.
func blockNulls(ix *ColumnIndex, data []byte, b int) (*roaring.Bitmap, error) {
	ref := ix.Blocks[b]
	if ref.NullBytes == 0 {
		return nil, nil
	}
	nulls, used, err := roaring.FromBytes(data[ref.NullOffset() : ref.NullOffset()+ref.NullBytes])
	if err != nil || used != ref.NullBytes {
		return nil, ErrCorrupt
	}
	return nulls, nil
}

// localSelections splits a column-wide selection into block-local bitmaps
// (positions rebased to each block's start row) for the listed blocks, in
// one ordered pass over the selection. Returns nil when sel is nil.
func localSelections(ix *ColumnIndex, blocks []int, sel *Selection) []*roaring.Bitmap {
	if sel == nil {
		return make([]*roaring.Bitmap, len(blocks))
	}
	// Map block id -> slot for the listed subset.
	slot := make(map[int]int, len(blocks))
	for i, b := range blocks {
		slot[b] = i
	}
	out := make([]*roaring.Bitmap, len(blocks))
	bi := 0 // current block cursor over all blocks (selection is ascending)
	sel.ForEach(func(row uint32) bool {
		for bi < len(ix.Blocks) && int(row) >= ix.Blocks[bi].StartRow+ix.Blocks[bi].Rows {
			bi++
		}
		if bi >= len(ix.Blocks) {
			return false
		}
		if int(row) < ix.Blocks[bi].StartRow {
			return true // row before the current block (shouldn't happen: ascending)
		}
		if i, ok := slot[bi]; ok {
			if out[i] == nil {
				out[i] = roaring.New()
			}
			out[i].Add(row - uint32(ix.Blocks[bi].StartRow))
		}
		return true
	})
	return out
}
