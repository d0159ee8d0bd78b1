// Package stats computes the block statistics behind scheme selection
// (steps 1–2 of the paper's compression loop).
//
// A profile gives every value of a stream a dense id in first-occurrence
// order and counts them (Profile.Build, StringProfile.Build). The
// cascade builds it at most once per stream: the viability filters read
// the Summary, and the Dictionary and Frequency encoders reuse the ids,
// counts and top value instead of hashing the stream again. A numeric
// stream is profiled at its first filter. A string stream's filters read
// a hash-free pass instead (StringShape.Scan: its length, its bytes, and
// whether all rows are equal, which stops at the first row that differs),
// so it is hashed only for the Dictionary encoder, or for the Dictionary
// filter on a stream of fewer than 5 values.
package stats

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"

	"btrblocks/coldata"
)

// Summary is what the viability filters read. Distinct is counted only up
// to N/2+2: every filter only needs to know whether more than half the
// values are unique. TopID is the most frequent of the counted values,
// ties going to the smallest value (bit pattern for doubles, byte order
// for strings).
type Summary struct {
	N, Distinct, RunCount, TopCount int
	TopID                           int32
}

// AvgRunLen is the mean run length (N > 0).
func (s *Summary) AvgRunLen() float64 { return float64(s.N) / float64(s.RunCount) }

// UniqueFrac is Distinct/N (N > 0).
func (s *Summary) UniqueFrac() float64 { return float64(s.Distinct) / float64(s.N) }

// counted is how many ids, in first-occurrence order, take part in
// Distinct and the top value.
func (s *Summary) counted(ids int) int { return min(ids, s.N/2+2) }

// Table is the reusable slot array a build looks values up in. It carries
// no state between builds.
type Table struct{ slots []int32 }

func (t *Table) cleared(n int) []int32 {
	if cap(t.slots) < n {
		t.slots = make([]int32, n)
		return t.slots
	}
	s := t.slots[:n]
	clear(s)
	return s
}

// hashBits sizes an open-addressed table for n values: the power of two
// that keeps it at most half full, so probes stay short and it never has
// to grow.
func hashBits(n int) uint { return uint(bits.Len(uint(2*n - 1))) }

const (
	// DenseSpan selects the table of a numeric stream: one whose max−min
	// is below DenseSpan × its length is counted by direct indexing on
	// v−min, any other by open addressing on a multiplicative hash. At 2
	// the directly indexed table is never larger than the hashed one
	// would be. PERFORMANCE.md has the measurement behind the factor.
	DenseSpan = 2
	phi       = 0x9E3779B97F4A7C15
	// idBits is the part of a string slot that holds 1+id; the rest is
	// hash tag. A stream has at most 1<<22 values (core.MaxBlockValues).
	idBits = 23
	idMask = 1<<idBits - 1
)

// Key is a value a numeric stream is keyed by: int32, int64, or the bit
// pattern of a float64 (so NaN payloads and -0.0 stay distinct).
type Key interface{ ~int32 | ~int64 | ~uint64 }

// Profile is the profile of a numeric stream.
type Profile[K Key] struct {
	Summary
	Built    bool // set by Build, cleared by Reset
	Min, Max K
	IDs      []int32 // per row: the id of its value
	Vals     []K     // per id: the value, in first-occurrence order
	Counts   []int32 // per id: occurrences
}

// Reset marks p as not built; its buffers stay for the next Build.
func (p *Profile[K]) Reset() { p.Built = false }

// Build profiles src, reusing p's buffers and t's slots.
func (p *Profile[K]) Build(src []K, t *Table) {
	n := len(src)
	*p = Profile[K]{Built: true, IDs: slices.Grow(p.IDs[:0], n)[:n], Vals: p.Vals[:0], Counts: p.Counts[:0]}
	if p.N = n; n == 0 {
		return
	}
	lo, hi, runs := src[0], src[0], 1
	for i := 1; i < n; i++ {
		v := src[i]
		if v < lo {
			lo = v
		} else if v > hi {
			hi = v
		}
		if v != src[i-1] {
			runs++
		}
	}
	p.Min, p.Max, p.RunCount = lo, hi, runs
	// uint64 arithmetic makes the span exact even when max−min overflows K.
	if span := uint64(hi) - uint64(lo); span < uint64(DenseSpan*n) {
		slots := t.cleared(int(span) + 1)
		for i, v := range src {
			s := &slots[uint64(v)-uint64(lo)]
			if *s == 0 {
				p.Vals, p.Counts = append(p.Vals, v), append(p.Counts, 0)
				*s = int32(len(p.Vals))
			}
			p.Counts[*s-1]++
			p.IDs[i] = *s - 1
		}
	} else {
		// A slot holds 1+id, 0 when empty.
		shift := 64 - hashBits(n)
		slots, id := t.cleared(1<<(64-shift)), int32(0)
		for i, v := range src {
			if i == 0 || v != src[i-1] {
				j := uint64(v) * phi >> shift
				for ; slots[j] != 0 && p.Vals[slots[j]-1] != v; j = (j + 1) & uint64(len(slots)-1) {
				}
				if slots[j] == 0 {
					p.Vals, p.Counts = append(p.Vals, v), append(p.Counts, 0)
					slots[j] = int32(len(p.Vals))
				}
				id = slots[j] - 1
			}
			p.Counts[id]++
			p.IDs[i] = id
		}
	}
	p.Distinct = p.counted(len(p.Vals))
	for id, c := range p.Counts[:p.Distinct] {
		if int(c) > p.TopCount || int(c) == p.TopCount && p.Vals[id] < p.Vals[p.TopID] {
			p.TopID, p.TopCount = int32(id), int(c)
		}
	}
}

// StringValue is one distinct string of a stream: its bytes' position in
// the column's Data — no string is ever copied — and its occurrences.
type StringValue struct {
	Off, End uint32
	Count    int32
}

// StringShape is the hash-free pass over a string stream.
type StringShape struct {
	N, TotalLen int
	// AllEqual is set when the stream has rows and they all hold one
	// value (a Summary's Distinct == 1); Len is then that value's length.
	AllEqual bool
	Len      int
}

// Scan fills s from src. It compares rows with the first only until one
// differs, so on mixed data it reads a few rows, not the stream.
func (s *StringShape) Scan(src coldata.Strings) {
	n := src.Len()
	*s = StringShape{N: n, TotalLen: len(src.Data)}
	if n == 0 {
		return
	}
	first := src.View(0)
	for i := 1; i < n; i++ {
		if !bytes.Equal(src.View(i), first) {
			return
		}
	}
	s.AllEqual, s.Len = true, len(first)
}

// StringProfile is the hashed pass over a string stream.
type StringProfile struct {
	Summary
	Built            bool
	TotalLen, MaxLen int
	IDs              []int32       // per row: the id of its value
	Vals             []StringValue // per id, in first-occurrence order
}

// Reset marks p as not built; its buffers stay for the next Build.
func (p *StringProfile) Reset() { p.Built = false }

// Build profiles src, reusing p's buffers and t's slots.
func (p *StringProfile) Build(src coldata.Strings, t *Table) {
	n := src.Len()
	*p = StringProfile{Built: true, IDs: slices.Grow(p.IDs[:0], n)[:n], Vals: p.Vals[:0]}
	if p.N, p.TotalLen = n, len(src.Data); n == 0 {
		return
	}
	// A slot packs 1+id (0 when empty) under tagBits of the value's hash,
	// so a probe rejects nearly every other value without touching its
	// bytes; the high bits of the hash pick the slot.
	shift := 64 - hashBits(n)
	slots, id := t.cleared(1<<(64-shift)), int32(0)
	var prev []byte
	for i := 0; i < n; i++ {
		off, end := src.Offsets[i], src.Offsets[i+1]
		v := src.Data[off:end]
		p.MaxLen = max(p.MaxLen, len(v))
		if i == 0 || !bytes.Equal(v, prev) {
			p.RunCount++
			prev = v
			h := hashBytes(v)
			tag := int32(h) << idBits
			j := h >> shift
			for ; slots[j] != 0; j = (j + 1) & uint64(len(slots)-1) {
				if s := slots[j]; s&^idMask == tag {
					if e := &p.Vals[s&idMask-1]; bytes.Equal(src.Data[e.Off:e.End], v) {
						break
					}
				}
			}
			if slots[j] == 0 {
				p.Vals = append(p.Vals, StringValue{Off: off, End: end})
				slots[j] = tag | int32(len(p.Vals))
			}
			id = slots[j]&idMask - 1
		}
		p.Vals[id].Count++
		p.IDs[i] = id
	}
	p.Distinct = p.counted(len(p.Vals))
	for id, e := range p.Vals[:p.Distinct] {
		top := &p.Vals[p.TopID]
		if int(e.Count) > p.TopCount || int(e.Count) == p.TopCount &&
			bytes.Compare(src.Data[e.Off:e.End], src.Data[top.Off:top.End]) < 0 {
			p.TopID, p.TopCount = int32(id), int(e.Count)
		}
	}
}

// hashBytes hashes a string 8 bytes per multiply; the last 1..8 bytes are
// read with overlapping loads, the length keeping such reads apart.
func hashBytes(b []byte) uint64 {
	n := len(b)
	h := mix(uint64(n) ^ phi)
	i := 0
	for ; i+8 < n; i += 8 {
		h = mix(h ^ binary.LittleEndian.Uint64(b[i:]))
	}
	switch {
	case n >= 8:
		h ^= binary.LittleEndian.Uint64(b[n-8:])
	case n >= 4:
		h ^= uint64(binary.LittleEndian.Uint32(b)) | uint64(binary.LittleEndian.Uint32(b[n-4:]))<<32
	case n > 0:
		h ^= uint64(b[0]) | uint64(b[n>>1])<<8 | uint64(b[n-1])<<16
	}
	return mix(h)
}

func mix(x uint64) uint64 {
	hi, lo := bits.Mul64(x, phi)
	return hi ^ lo
}
