package core

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
)

// This file implements predicate evaluation directly on compressed
// streams — the capability §7 of the paper notes BtrBlocks can support
// when the chosen schemes permit it. One kernel per value family (scan for
// numbers, String.scan for strings) walks a compressed stream, counts the
// matching values and, when given a selection, sets their bits in it: a
// block-local bitset in which bit i (bit i%64 of word i/64) is value i of
// the stream. Runs and whole streams set bit ranges; values tested one by
// one are gathered into words that are ORed in. Where the stream's scheme
// entry has a scan (OneValue, RLE, Dict, Frequency, FastBP) it answers in
// the compressed domain; every other stream decodes and filters.
//
// NULL handling is the caller's job: NULL slots are rewritten by the
// compressor, so a caller evaluating a NULL-bearing block clears the
// block's NULL rows from the kernel's output. That keeps the
// compressed-domain paths usable even when NULLs are present — unlike
// counts, a position set can be corrected after the fact.

// PredOp is the comparison class of a predicate.
type PredOp uint8

// Predicate operators.
const (
	PredEq PredOp = iota
	PredRange
	PredIn
)

// SelectStats counts which evaluation paths fired during Select*/
// Aggregate* calls. Counters are atomic so one stats value can be shared
// across the per-block workers of a parallel scan. The restricted-scheme
// oracle tests use these to prove a compressed-domain path actually
// executed rather than silently falling back to decode.
type SelectStats struct {
	OneValue   atomic.Int64 // OneValue short-circuits
	RLE        atomic.Int64 // RLE run walks (no expansion)
	Dict       atomic.Int64 // dictionary predicate mappings
	Frequency  atomic.Int64 // Frequency bitmap/exception splits
	FORSkipped atomic.Int64 // packed 128-value blocks skipped by min-max
	FORScanned atomic.Int64 // packed 128-value blocks unpacked and tested
	Decoded    atomic.Int64 // terminal streams decoded and filtered
	AggFast    atomic.Int64 // aggregates answered from compressed form
	AggDecoded atomic.Int64 // aggregates that decoded values
}

// SelectStatsSnapshot is a plain-value copy of SelectStats, suitable for
// JSON and for summing across scans.
type SelectStatsSnapshot struct {
	OneValue   int64 `json:"one_value"`
	RLE        int64 `json:"rle"`
	Dict       int64 `json:"dict"`
	Frequency  int64 `json:"frequency"`
	FORSkipped int64 `json:"for_skipped"`
	FORScanned int64 `json:"for_scanned"`
	Decoded    int64 `json:"decoded"`
	AggFast    int64 `json:"agg_fast"`
	AggDecoded int64 `json:"agg_decoded"`
}

// Snapshot returns a plain-value copy of the counters.
func (s *SelectStats) Snapshot() SelectStatsSnapshot {
	return SelectStatsSnapshot{
		OneValue:   s.OneValue.Load(),
		RLE:        s.RLE.Load(),
		Dict:       s.Dict.Load(),
		Frequency:  s.Frequency.Load(),
		FORSkipped: s.FORSkipped.Load(),
		FORScanned: s.FORScanned.Load(),
		Decoded:    s.Decoded.Load(),
		AggFast:    s.AggFast.Load(),
		AggDecoded: s.AggDecoded.Load(),
	}
}

// Add accumulates o into s.
func (s *SelectStatsSnapshot) Add(o SelectStatsSnapshot) {
	s.OneValue += o.OneValue
	s.RLE += o.RLE
	s.Dict += o.Dict
	s.Frequency += o.Frequency
	s.FORSkipped += o.FORSkipped
	s.FORScanned += o.FORScanned
	s.Decoded += o.Decoded
	s.AggFast += o.AggFast
	s.AggDecoded += o.AggDecoded
}

// discardStats is the sink used when a caller passes nil stats; atomic
// counters make concurrent discarding writes harmless.
var discardStats SelectStats

func (s *SelectStats) orDiscard() *SelectStats {
	if s == nil {
		return &discardStats
	}
	return s
}

// Matcher is what the scan kernel asks of a predicate over T: one value at
// a time where the stream has one value for many rows (OneValue, a run,
// Frequency's top value), whole slices where it has decoded values, and a
// translation to dictionary codes. *Pred[T] serves the integers,
// *DoublePred the doubles.
type Matcher[T numeric] interface {
	// Match reports whether v satisfies the predicate.
	Match(v T) bool
	// filter counts the matching values and, when sel is non-nil, sets
	// the bit of each.
	filter(vals []T, sel []uint64) int
	// codes maps the predicate over a dictionary to one on its codes.
	codes(dict []T) *Pred[int32]
}

// Pred is a predicate over integer values. Range bounds are inclusive. In
// must be sorted ascending (use Normalize). An empty In matches nothing.
type Pred[T integer] struct {
	Op     PredOp
	Eq     T
	Lo, Hi T
	In     []T
}

// Eq is the predicate matching values equal to v.
func Eq[T integer](v T) *Pred[T] { return &Pred[T]{Op: PredEq, Eq: v} }

// Normalize sorts and dedupes the In set.
func (p *Pred[T]) Normalize() {
	if p.Op == PredIn {
		slices.Sort(p.In)
		p.In = slices.Compact(p.In)
	}
}

// Match reports whether v satisfies the predicate.
func (p *Pred[T]) Match(v T) bool {
	switch p.Op {
	case PredEq:
		return v == p.Eq
	case PredRange:
		return v >= p.Lo && v <= p.Hi
	default:
		_, ok := slices.BinarySearch(p.In, v)
		return ok
	}
}

// Bounds returns the inclusive value envelope outside which nothing can
// match. An unsatisfiable predicate returns lo > hi.
func (p *Pred[T]) Bounds() (lo, hi int64) {
	switch p.Op {
	case PredEq:
		return int64(p.Eq), int64(p.Eq)
	case PredRange:
		return int64(p.Lo), int64(p.Hi)
	default:
		if len(p.In) == 0 {
			return math.MaxInt64, math.MinInt64
		}
		return int64(p.In[0]), int64(p.In[len(p.In)-1])
	}
}

func (p *Pred[T]) filter(vals []T, sel []uint64) int {
	return gatherWords(len(vals), func(i int) bool { return p.Match(vals[i]) }, sel)
}

// gatherWords tests values 0..n-1 with match, 64 to a word, ORs each
// word of matches into sel unless sel is nil, and returns how many match.
func gatherWords(n int, match func(i int) bool, sel []uint64) (count int) {
	for lo := 0; lo < n; lo += 64 {
		var m uint64
		for i := lo; i < min(n, lo+64); i++ {
			if match(i) {
				m |= 1 << (i - lo)
			}
		}
		if sel != nil {
			sel[lo/64] |= m
		}
		count += bits.OnesCount64(m)
	}
	return count
}

// setBits sets bits [lo, hi) of sel.
func setBits(sel []uint64, lo, hi int) {
	for lo < hi {
		s := lo % 64
		k := min(hi-lo, 64-s)
		sel[lo/64] |= ^uint64(0) >> (64 - k) << s
		lo += k
	}
}

// orBits ORs n bits of src, starting at bit from, into sel starting at
// bit at.
func orBits(sel []uint64, at int, src []uint64, from, n int) {
	for n > 0 {
		s, d := from%64, at%64
		k := min(n, 64-s, 64-d)
		sel[at/64] |= src[from/64] >> s & (^uint64(0) >> (64 - k)) << d
		from, at, n = from+k, at+k, n-k
	}
}

// codes maps p over a sorted dictionary to a predicate on dictionary
// codes, exploiting the sorted order: Eq binary-searches, Range becomes a
// contiguous code range, In becomes a sorted code set.
func (p *Pred[T]) codes(dict []T) *Pred[int32] {
	switch p.Op {
	case PredEq:
		if i, ok := slices.BinarySearch(dict, p.Eq); ok {
			return Eq(int32(i))
		}
		return &Pred[int32]{Op: PredIn}
	case PredRange:
		lo, _ := slices.BinarySearch(dict, p.Lo)
		hi, ok := slices.BinarySearch(dict, p.Hi)
		if !ok {
			hi--
		}
		if lo > hi {
			return &Pred[int32]{Op: PredIn}
		}
		return &Pred[int32]{Op: PredRange, Lo: int32(lo), Hi: int32(hi)}
	default:
		var codes []int32
		for _, v := range p.In {
			if i, ok := slices.BinarySearch(dict, v); ok {
				codes = append(codes, int32(i))
			}
		}
		return codesPredFromSorted(codes)
	}
}

// codesPredFromSorted builds the cheapest predicate holding exactly the
// given ascending code list: a contiguous list becomes a range (so the
// codes stream's FOR blocks can still be min-max skipped), otherwise an
// In set.
func codesPredFromSorted(codes []int32) *Pred[int32] {
	switch {
	case len(codes) == 0:
		return &Pred[int32]{Op: PredIn}
	case len(codes) == 1:
		return Eq(codes[0])
	case int(codes[len(codes)-1]-codes[0]) == len(codes)-1:
		return &Pred[int32]{Op: PredRange, Lo: codes[0], Hi: codes[len(codes)-1]}
	default:
		return &Pred[int32]{Op: PredIn, In: codes}
	}
}

// StringPred is a predicate over string values (byte comparisons; Range
// is lexicographic and inclusive; In must be sorted with Normalize).
type StringPred struct {
	Op     PredOp
	Eq     []byte
	Lo, Hi []byte
	In     [][]byte
}

// Normalize sorts and dedupes the In set lexicographically.
func (p *StringPred) Normalize() {
	if p.Op != PredIn {
		return
	}
	slices.SortFunc(p.In, bytes.Compare)
	p.In = slices.CompactFunc(p.In, bytes.Equal)
}

// Match reports whether v satisfies the predicate.
func (p *StringPred) Match(v []byte) bool {
	switch p.Op {
	case PredEq:
		return bytes.Equal(v, p.Eq)
	case PredRange:
		return bytes.Compare(v, p.Lo) >= 0 && bytes.Compare(v, p.Hi) <= 0
	default:
		_, ok := slices.BinarySearchFunc(p.In, v, bytes.Compare)
		return ok
	}
}

// Select evaluates m over one compressed stream, setting the bit of each
// matching value in sel, which holds a bit for every value of the stream.
// Returns the bytes consumed. st may be nil.
func (t *Numeric[T, K]) Select(src []byte, m Matcher[T], sel []uint64, st *SelectStats, cfg *Config) (int, error) {
	_, used, err := t.scan(src, m, sel, st.orDiscard(), cfg)
	return used, err
}

// Count counts the values of one compressed stream that match m without
// locating them: RLE sums run lengths, a dictionary resolves the
// predicate to codes once and counts codes, Frequency answers its top
// value from the bitmap cardinality. Returns the count and the bytes
// consumed. st may be nil.
func (t *Numeric[T, K]) Count(src []byte, m Matcher[T], st *SelectStats, cfg *Config) (count, used int, err error) {
	return t.scan(src, m, nil, st.orDiscard(), cfg)
}

// scan is the kernel behind Select and Count; a nil sel means count only.
func (t *Numeric[T, K]) scan(src []byte, m Matcher[T], sel []uint64, st *SelectStats, cfg *Config) (count, used int, err error) {
	e, n, err := selHead(&t.schemes, src, sel, cfg)
	if err != nil {
		return 0, 0, err
	}
	if e.scan != nil {
		return e.scan(src, n, m, sel, st, cfg)
	}
	values, used, err := e.decode(t.buf(cfg.Scratch), src, n, cfg)
	defer t.putBuf(cfg.Scratch, values)
	if err != nil {
		return 0, 0, err
	}
	st.Decoded.Add(1)
	return m.filter(values, sel), used, nil
}

// Select evaluates p over one compressed string stream (see
// Numeric.Select). Dictionary streams map the predicate over the
// lexicographically sorted dictionary to a code predicate; other schemes
// decode views and filter.
func (t *StringKind) Select(src []byte, p *StringPred, sel []uint64, st *SelectStats, cfg *Config) (int, error) {
	_, used, err := t.scan(src, p, sel, st.orDiscard(), cfg)
	return used, err
}

// Count counts the values of one compressed string stream that match p
// (see Numeric.Count): a dictionary resolves the predicate once, then
// counts codes in the (typically RLE/bit-packed) code stream without
// touching string bytes again. st may be nil.
func (t *StringKind) Count(src []byte, p *StringPred, st *SelectStats, cfg *Config) (count, used int, err error) {
	return t.scan(src, p, nil, st.orDiscard(), cfg)
}

// scan is the kernel behind Select and Count; a nil sel means count only.
func (t *StringKind) scan(src []byte, p *StringPred, sel []uint64, st *SelectStats, cfg *Config) (count, used int, err error) {
	e, n, err := selHead(&t.schemes, src, sel, cfg)
	if err != nil {
		return 0, 0, err
	}
	if e.scan != nil {
		return e.scan(src, n, p, sel, st, cfg)
	}
	views, used, err := t.Decompress(src, cfg)
	if err != nil {
		return 0, 0, err
	}
	st.Decoded.Add(1)
	return gatherWords(views.Len(), func(i int) bool { return p.Match(views.Bytes(i)) }, sel), used, nil
}

// selHead is head for a kernel run into sel: a stream with more values
// than sel has bits is corrupt.
func selHead[E any](table *[numCodes]*E, src []byte, sel []uint64, cfg *Config) (e *E, n int, err error) {
	e, n, err = head(table, src, cfg)
	if err == nil && sel != nil && n > 64*len(sel) {
		return nil, 0, ErrCorrupt
	}
	return e, n, err
}
