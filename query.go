package btrblocks

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"btrblocks/internal/core"
	"btrblocks/internal/obs"
	"btrblocks/internal/parallel"
	"btrblocks/internal/roaring"
)

// This file is the §7 capability — processing compressed data — over one
// column file: Eq/Range/In/NotNull predicates evaluate per block directly
// on the compressed representation where the scheme allows (dictionary
// code mapping, FOR min-max block skipping, RLE run walks,
// OneValue/Frequency short-circuits — see internal/core/select.go),
// producing roaring-backed Selections that compose with And/Or for
// multi-column plans or just their counts, plus Count/Sum/Min/Max
// aggregates folded from compressed streams without materializing. Every
// evaluation walks the blocks the same way (walkBlocks) and opens each
// the same way (openBlock). Plan parsing, metadata-based block pruning,
// and the serving endpoints live in internal/query; this layer owns
// single-column evaluation over one column file.
//
// Within a block a selection is a plain bitset, bit i for row i of the
// block, which the kernels write and the NULL correction, counts and
// aggregates read a word at a time; a column's selection is roaring, and
// roaring's AddWords and Words are the only bridges between the two.
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
// same payload; 0.0 and -0.0 are distinct), the identity the compressor
// keeps.
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

// fits reports whether p applies to a column of type t.
func (p Predicate) fits(t Type) bool { return p.kind == predNotNull || p.typ == t }

// ParseEq parses a probe literal — the value of a /v1/count-eq request —
// into an equality predicate on a column of type typ: a base-10 integer
// that fits the type for integer columns (strconv.ParseInt), a Go float
// literal for doubles (strconv.ParseFloat, so "NaN", "-0" and "1e3" are
// probes), and the literal itself for strings.
func ParseEq(typ Type, probe string) (Predicate, error) {
	var err error
	switch typ {
	case TypeInt:
		var v int64
		if v, err = strconv.ParseInt(probe, 10, 32); err == nil {
			return IntEq(int32(v)), nil
		}
	case TypeInt64:
		var v int64
		if v, err = strconv.ParseInt(probe, 10, 64); err == nil {
			return Int64Eq(v), nil
		}
	case TypeDouble:
		var v float64
		if v, err = strconv.ParseFloat(probe, 64); err == nil {
			return DoubleEq(v), nil
		}
	case TypeString:
		return StringEq(probe), nil
	default:
		err = ErrTypeMismatch
	}
	return Predicate{}, fmt.Errorf("btrblocks: bad %s probe %q: %w", typ, probe, err)
}

// Matches reports whether row of a decoded column satisfies p: the
// decode-then-filter answer the compressed-domain paths must equal. A
// NULL row satisfies no predicate.
func (p Predicate) Matches(col *Column, row int) bool {
	switch {
	case col.Nulls.IsNull(row) || !p.fits(col.Type):
		return false
	case p.kind == predNotNull:
		return true
	}
	switch col.Type {
	case TypeInt:
		return p.intP.Match(col.Ints[row])
	case TypeInt64:
		return p.int64P.Match(col.Ints64[row])
	case TypeDouble:
		return p.doubleP.Match(col.Doubles[row])
	default:
		return p.strP.Match(col.Strings.View(row))
	}
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

// Bitmap exposes the underlying bitmap (a new empty one for a zero-value
// Selection).
func (s Selection) Bitmap() *roaring.Bitmap {
	if s.bm == nil {
		return roaring.New()
	}
	return s.bm
}

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

// And intersects two selections.
func (s Selection) And(o Selection) Selection {
	return Selection{bm: roaring.And(s.Bitmap(), o.Bitmap())}
}

// Or unions two selections.
func (s Selection) Or(o Selection) Selection {
	return Selection{bm: roaring.Or(s.Bitmap(), o.Bitmap())}
}

// AndNot returns the rows in s but not in o.
func (s Selection) AndNot(o Selection) Selection {
	return Selection{bm: roaring.AndNot(s.Bitmap(), o.Bitmap())}
}

// Clone returns an independent copy.
func (s Selection) Clone() Selection { return Selection{bm: s.Bitmap().Clone()} }

// Equals reports set equality.
func (s Selection) Equals(o Selection) bool { return s.Bitmap().Equals(o.Bitmap()) }

// AppendTo serializes the selection (the roaring wire format, also used
// by the query endpoints to ship selections between processes).
func (s Selection) AppendTo(dst []byte) []byte { return s.Bitmap().AppendTo(dst) }

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
	blocks, parts, stats, err := ix.matchBlocks(ctx, data, p, blocks, true, opt)
	if err != nil {
		return Selection{}, stats, err
	}
	out := roaring.New()
	for i, part := range parts {
		out.AddWords(uint32(ix.Blocks[blocks[i]].StartRow), part.rows)
	}
	return Selection{bm: out}, stats, nil
}

// Count counts the rows of a column file that satisfy p: ColumnIndex.Count
// on a freshly parsed index.
func Count(data []byte, p Predicate, opt *Options) (int, error) {
	ix, err := ParseColumnIndex(data)
	if err != nil {
		return 0, err
	}
	n, _, err := ix.Count(data, p, opt)
	return n, err
}

// Count returns the number of rows Select would select without building
// the selection. A block without NULLs runs p's kernel with no bitmap at
// all: RLE sums run lengths, a dictionary counts codes, Frequency reads
// its bitmap's cardinality. A NULL-bearing block selects into a
// block-local bitset, takes its NULLs out and counts what is left. data
// must be the buffer the index was parsed from.
func (ix *ColumnIndex) Count(data []byte, p Predicate, opt *Options) (int, SelectStats, error) {
	return ix.CountContext(context.Background(), data, p, opt)
}

// CountContext is Count with a caller context (cancellation + spans).
func (ix *ColumnIndex) CountContext(ctx context.Context, data []byte, p Predicate, opt *Options) (int, SelectStats, error) {
	_, parts, stats, err := ix.matchBlocks(ctx, data, p, nil, false, opt)
	if err != nil {
		return 0, stats, err
	}
	total := 0
	for _, part := range parts {
		total += part.n
	}
	return total, stats, nil
}

// blockMatch is one block's answer to a predicate: how many of its rows
// match and, when they were asked for or needed to take out the NULLs,
// which ones (a block-local bitset).
type blockMatch struct {
	n    int
	rows []uint64
}

// matchBlocks evaluates p over the listed blocks (nil = all) for Select
// (keep set) and Count.
func (ix *ColumnIndex) matchBlocks(ctx context.Context, data []byte, p Predicate, blocks []int, keep bool, opt *Options) ([]int, []blockMatch, SelectStats, error) {
	var stats core.SelectStats
	if !p.fits(ix.Type) {
		return nil, nil, stats.Snapshot(), ErrTypeMismatch
	}
	base, rec := opt.coreConfig(), opt.telemetryRecorder()
	blocks, parts, err := walkBlocks(ctx, ix, blocks, nil, opt, func(b int, _ []uint64) (blockMatch, error) {
		blk, err := ix.openBlock(data, b, base, rec)
		if err != nil {
			return blockMatch{}, err
		}
		if !keep && blk.nulls == nil {
			n := blk.ref.Rows
			if p.kind == predValue {
				n, err = blk.match(p, ix.Type, nil, &stats)
			}
			return blockMatch{n: n}, err
		}
		// NULL slots are rewritten by the compressor, so whatever the
		// kernel decided about them is meaningless: keep the valid rows
		// only. This is the post-hoc correction that keeps the
		// compressed-domain paths usable on NULL-bearing blocks.
		valid := blk.valid()
		if p.kind == predNotNull {
			return blockMatch{n: andCount(valid, nil), rows: valid}, nil
		}
		rows := make([]uint64, len(valid))
		if _, err := blk.match(p, ix.Type, rows, &stats); err != nil {
			return blockMatch{}, err
		}
		return blockMatch{n: andCount(rows, valid), rows: rows}, nil
	})
	return blocks, parts, stats.Snapshot(), err
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
// Aggregate. A numeric block folds on its compressed stream, restricted
// to its selected non-NULL rows (OneValue once, RLE per run, Dict through
// its codes, Frequency by split, and under a selection FastBP and
// Pseudodecimal read only the selected rows — see
// internal/core/aggregate.go), and no column is built; string blocks
// decode. Per-block partials merge in block order, so results are
// identical at every worker count.
func (ix *ColumnIndex) AggregateBlocksContext(ctx context.Context, data []byte, blocks []int, sel *Selection, opt *Options) (Aggregate, SelectStats, error) {
	var stats core.SelectStats
	base, rec := opt.coreConfig(), opt.telemetryRecorder()
	_, parts, err := walkBlocks(ctx, ix, blocks, sel, opt, func(b int, local []uint64) (Aggregate, error) {
		if ix.Type == TypeString {
			return ix.aggregateStrings(ctx, data, b, local, opt, &stats)
		}
		blk, err := ix.openBlock(data, b, base, rec)
		if err != nil {
			return Aggregate{}, err
		}
		// The rows to fold: the selected ones (local; nil is every row),
		// minus the NULLs, whose slots the compressor rewrote.
		rows, want := local, blk.ref.Rows
		if blk.nulls != nil {
			rows = blk.valid()
			want = andCount(rows, local)
		} else if local != nil {
			want = andCount(local, nil)
		}
		scr := decodeScratch.Get().(*core.Scratch)
		defer decodeScratch.Put(scr)
		blk.cfg.Scratch = scr
		agg, used := Aggregate{}, 0
		switch ix.Type {
		case TypeInt:
			var g core.Agg[int32]
			used, err = core.Int.Aggregate(blk.stream, rows, &g, &stats, &blk.cfg)
			agg = fromIntAgg(TypeInt, g)
		case TypeInt64:
			var g core.Agg[int64]
			used, err = core.Int64.Aggregate(blk.stream, rows, &g, &stats, &blk.cfg)
			agg = fromIntAgg(TypeInt64, g)
		case TypeDouble:
			var g core.DoubleAgg
			used, err = core.Double.Aggregate(blk.stream, rows, &g, &stats, &blk.cfg)
			agg = fromDoubleAgg(g)
		}
		if err = blk.consumed(used, err); err != nil {
			return Aggregate{}, err
		}
		if agg.Count != int64(want) {
			return Aggregate{}, ErrCorrupt
		}
		return agg, nil
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

// aggregateStrings decodes string block b and folds its selected non-NULL
// rows (local; nil is every row).
func (ix *ColumnIndex) aggregateStrings(ctx context.Context, data []byte, b int, local []uint64, opt *Options, stats *core.SelectStats) (Aggregate, error) {
	d := newColumnDecode(ix, data, b, b+1, true)
	if err := decodeColumns(ctx, []*columnDecode{d}, opt, "", false); err != nil {
		return Aggregate{}, err
	}
	stats.AggDecoded.Add(1)
	agg := Aggregate{Type: ix.Type}
	keep := d.col.Nulls.valid(ix.Blocks[b].Rows)
	andCount(keep, local)
	for r := 0; r < d.views[0].Len(); r++ {
		if keep[r/64]>>(r%64)&1 != 0 {
			agg.FoldString(d.views[0].Bytes(r))
		}
	}
	return agg, nil
}

// CountNotNullBlocksContext counts non-NULL rows over the listed blocks
// (nil = all), restricted to sel when non-nil — answered entirely from
// block headers and NULL bitmaps, never touching a data stream.
func (ix *ColumnIndex) CountNotNullBlocksContext(ctx context.Context, data []byte, blocks []int, sel *Selection, opt *Options) (int64, error) {
	base, rec := opt.coreConfig(), opt.telemetryRecorder()
	_, counts, err := walkBlocks(ctx, ix, blocks, sel, opt, func(b int, local []uint64) (int64, error) {
		blk, err := ix.openBlock(data, b, base, rec)
		switch {
		case err != nil:
			return 0, err
		case local == nil && blk.nulls == nil:
			return int64(blk.ref.Rows), nil
		case local == nil:
			return int64(blk.ref.Rows - blk.nulls.Cardinality()), nil
		}
		return int64(andCount(blk.valid(), local)), nil
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

// walkBlocks is the per-block loop of every evaluation over a column file.
// It runs fn on the worker pool, under the query path name, for each
// listed block (nil = all) and returns the blocks and fn's results in list
// order; merged in that order, they give the same answer at every worker
// count. With sel non-nil, fn also gets the block's selected rows (a
// block-local bitset), and a block holding none is skipped without its
// bytes being touched: its result is R's zero value.
func walkBlocks[R any](ctx context.Context, ix *ColumnIndex, blocks []int, sel *Selection, opt *Options,
	fn func(b int, local []uint64) (R, error)) ([]int, []R, error) {
	if blocks == nil {
		blocks = make([]int, len(ix.Blocks))
		for i := range blocks {
			blocks[i] = i
		}
	}
	out := make([]R, len(blocks))
	err := parallel.Observed(ctx, len(blocks), parallelism(opt), pathQuery, observerOf(opt.telemetryRecorder()), func(i int) error {
		b := blocks[i]
		if b < 0 || b >= len(ix.Blocks) {
			return fmt.Errorf("btrblocks: query block %d out of range [0,%d)", b, len(ix.Blocks))
		}
		var local []uint64
		if sel != nil {
			ref := ix.Blocks[b]
			local = sel.Bitmap().Words(uint32(ref.StartRow), uint32(ref.StartRow+ref.Rows), nil)
			if !slices.ContainsFunc(local, func(w uint64) bool { return w != 0 }) {
				return nil
			}
		}
		var err error
		out[i], err = fn(b, local)
		return err
	})
	return blocks, out, err
}

// openedBlock is one block of a column file past openBlock, the prologue
// every read of a block shares.
type openedBlock struct {
	ref    BlockRef
	stream []byte          // the compressed data stream
	nulls  *roaring.Bitmap // nil when the block has no NULLs
	cfg    core.Config     // decoded values capped at the block's row count
}

// openBlock checks that block b lies inside data, verifies its CRC (a
// mismatch is counted on rec) and parses its NULL bitmap. The cap on
// decoded values keeps a corrupt stream header from forcing an
// allocation larger than the block; the stream itself must hold exactly
// one value per row.
func (ix *ColumnIndex) openBlock(data []byte, b int, base *core.Config, rec *obs.Telemetry) (openedBlock, error) {
	ref := ix.Blocks[b]
	blk := openedBlock{ref: ref, cfg: *base}
	if ref.End() > len(data) {
		return blk, ErrTruncatedFile
	}
	if err := ix.VerifyBlock(data, b); err != nil {
		rec.RecordCorruption(1)
		return blk, err
	}
	if ref.NullBytes > 0 {
		nulls, used, err := roaring.FromBytes(data[ref.NullOffset() : ref.NullOffset()+ref.NullBytes])
		if err != nil || used != ref.NullBytes {
			return blk, ErrCorrupt
		}
		blk.nulls = nulls
	}
	blk.stream = data[ref.DataOffset():ref.End()]
	if n, err := core.StreamLen(blk.stream); err != nil || n != ref.Rows {
		return blk, ErrCorrupt
	}
	blk.cfg.MaxDecodedValues = ref.Rows
	return blk, nil
}

// valid returns the block's non-NULL rows as a bitset.
func (blk *openedBlock) valid() []uint64 { return (&NullMask{bm: blk.nulls}).valid(blk.ref.Rows) }

// andCount intersects the bitset dst with src, unless src is nil, and
// returns the number of bits dst keeps.
func andCount(dst, src []uint64) int {
	n := 0
	for i := range dst {
		if src != nil {
			dst[i] &= src[i]
		}
		n += bits.OnesCount64(dst[i])
	}
	return n
}

// consumed is the epilogue of a kernel run over the block's stream: the
// kernel's error, or ErrCorrupt when it did not consume the stream
// exactly.
func (blk *openedBlock) consumed(used int, err error) error {
	if err == nil && used != len(blk.stream) {
		return ErrCorrupt
	}
	return err
}

// match runs p's kernel over the block's stream, a column of type t: into
// the bitset out when out is non-nil, and otherwise counting only and
// returning the count.
func (blk *openedBlock) match(p Predicate, t Type, out []uint64, st *core.SelectStats) (n int, err error) {
	var used int
	s, cfg := blk.stream, &blk.cfg
	switch {
	case t == TypeInt && out == nil:
		n, used, err = core.Int.Count(s, p.intP, st, cfg)
	case t == TypeInt:
		used, err = core.Int.Select(s, p.intP, out, st, cfg)
	case t == TypeInt64 && out == nil:
		n, used, err = core.Int64.Count(s, p.int64P, st, cfg)
	case t == TypeInt64:
		used, err = core.Int64.Select(s, p.int64P, out, st, cfg)
	case t == TypeDouble && out == nil:
		n, used, err = core.Double.Count(s, p.doubleP, st, cfg)
	case t == TypeDouble:
		used, err = core.Double.Select(s, p.doubleP, out, st, cfg)
	case out == nil:
		n, used, err = core.String.Count(s, p.strP, st, cfg)
	default:
		used, err = core.String.Select(s, p.strP, out, st, cfg)
	}
	return n, blk.consumed(used, err)
}
