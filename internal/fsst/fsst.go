// Package fsst implements Fast Static Symbol Table string compression
// (Boncz, Neumann, Leis — PVLDB 2020). FSST replaces frequently occurring
// substrings of up to 8 bytes with 1-byte codes from an immutable 255-entry
// symbol table; decompression is a tight loop of table lookups and 8-byte
// copies. The table is trained per block with an iterative bottom-up
// algorithm that repeatedly compresses a sample, counts symbol and
// symbol-pair frequencies, and keeps the highest-gain candidates.
package fsst

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
)

const (
	// MaxSymbols is the number of usable codes; code 255 is the escape
	// marker that prefixes a literal byte.
	MaxSymbols = 255
	// MaxSymbolLen is the maximum symbol length in bytes.
	MaxSymbolLen = 8
	// EscapeCode marks "next input byte is a literal".
	EscapeCode = 255

	// maxSampleBytes bounds the training sample, like the reference
	// implementation, so table construction stays cheap.
	maxSampleBytes = 1 << 14
	// buildIterations is the number of refinement generations.
	buildIterations = 5
	// trainChunk is the size of the evenly spaced pieces a sample above
	// maxSampleBytes is cut down to.
	trainChunk = 512
)

// ErrCorrupt is returned for malformed compressed data or tables.
var ErrCorrupt = errors.New("fsst: corrupt stream")

// Symbol is a byte string of length 1..8 stored in a uint64
// (first byte in the lowest-order byte).
type Symbol struct {
	Val uint64
	Len uint8
}

func makeSymbol(b []byte) Symbol {
	var v uint64
	n := len(b)
	if n > MaxSymbolLen {
		n = MaxSymbolLen
	}
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return Symbol{Val: v, Len: uint8(n)}
}

func concatSymbols(a, b Symbol) (Symbol, bool) {
	if int(a.Len)+int(b.Len) > MaxSymbolLen {
		return Symbol{}, false
	}
	return Symbol{Val: a.Val | b.Val<<(8*uint(a.Len)), Len: a.Len + b.Len}, true
}

// Bytes returns the symbol's byte string.
func (s Symbol) Bytes() []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], s.Val)
	return buf[:s.Len]
}

// Table is an immutable FSST symbol table.
type Table struct {
	symbols [MaxSymbols]Symbol
	n       int
	// decVal/decLen form the flat decode jump table: one unconditional
	// 8-byte store per code. decLen is 0 for unassigned codes (and for
	// the escape code, which is handled before the table lookup), which
	// doubles as the corruption check.
	decVal [256]uint64
	decLen [256]uint8
	// enc is the encoder's match index. Train builds it; a deserialized
	// table builds it on its first Encode, so decoding never pays for it.
	enc     *matchIndex
	encOnce sync.Once
}

// NumSymbols returns the number of symbols in the table.
func (t *Table) NumSymbols() int { return t.n }

// SymbolAt returns symbol i (for inspection and tests).
func (t *Table) SymbolAt(i int) Symbol { return t.symbols[i] }

func (t *Table) buildDecode() {
	t.decVal = [256]uint64{}
	t.decLen = [256]uint8{}
	for i := 0; i < t.n; i++ {
		t.decVal[i] = t.symbols[i].Val
		t.decLen[i] = t.symbols[i].Len
	}
}

// longSlots is the size of the hash table over symbols of 3+ bytes: at
// most 255 of them keep it under a quarter full.
const (
	longBits  = 10
	longSlots = 1 << longBits
)

// matchIndex finds the longest symbol that prefixes the input in O(1).
// Symbols of three or more bytes sit in an open-addressed table hashed on
// their first three bytes, each slot holding everything a probe compares
// (all symbols that can match one input share those bytes, hence a home
// slot, and are entered longest first, so the first hit along the probe
// sequence is the longest match). Every two-byte prefix maps directly to
// the best symbol of at most two bytes; EscapeCode, never a symbol's
// code, marks "none".
type matchIndex struct {
	long   [longSlots]longSymbol
	short  [1 << 16]uint8 // little-endian 2-byte prefix -> code of length <= 2
	single [256]uint8     // first byte -> code of length 1
}

// longSymbol is one slot of matchIndex.long; mask is 0 in an empty slot.
type longSymbol struct {
	val, mask uint64 // the symbol's bytes, and the window bytes it covers
	code, len uint8
}

func hash3(w uint64) uint32 {
	return uint32((w&0xffffff)*0x9E3779B1) >> (32 - longBits)
}

// fillMatcher rebuilds t.enc from the symbols. Among duplicate symbols (a
// deserialized table may hold some) a lookup must find the lowest code,
// as the first-match scan this index replaces did: long symbols are
// entered lowest code first, the direct tables highest code first.
func (t *Table) fillMatcher() {
	x := t.enc
	x.long = [longSlots]longSymbol{}
	for l := uint8(MaxSymbolLen); l >= 3; l-- {
		for c := 0; c < t.n; c++ {
			if t.decLen[c] == l {
				j := hash3(t.decVal[c])
				for x.long[j].mask != 0 {
					j = (j + 1) % longSlots
				}
				x.long[j] = longSymbol{t.decVal[c], ^uint64(0) >> (64 - 8*l), uint8(c), l}
			}
		}
	}
	for i := range x.single {
		x.single[i] = EscapeCode
	}
	for c := t.n - 1; c >= 0; c-- {
		if t.decLen[c] == 1 {
			x.single[uint8(t.decVal[c])] = uint8(c)
		}
	}
	// Row b1 of short holds every first byte b0: start each row from the
	// one-byte symbols, then let two-byte symbols take their own entry.
	for b1 := 0; b1 < 256; b1++ {
		copy(x.short[b1<<8:], x.single[:])
	}
	for c := t.n - 1; c >= 0; c-- {
		if t.decLen[c] == 2 {
			x.short[uint16(t.decVal[c])] = uint8(c)
		}
	}
}

// matcher returns the match index, building it on first use.
func (t *Table) matcher() *matchIndex {
	t.encOnce.Do(func() {
		if t.enc == nil {
			t.enc = new(matchIndex)
			t.fillMatcher()
		}
	})
	return t.enc
}

// match returns the code and length of the longest symbol that prefixes
// the first n (1..8) bytes of the little-endian window w, whose bytes
// past n are zero; without one it returns EscapeCode and length 1. This
// is greedy longest match: lengths 8 down to 3 from the hash table, then
// 2, then 1.
func (t *Table) match(x *matchIndex, w uint64, n int) (code uint8, length int) {
	for j := hash3(w); x.long[j].mask != 0; j = (j + 1) % longSlots {
		if e := &x.long[j]; w&e.mask == e.val && int(e.len) <= n {
			return e.code, int(e.len)
		}
	}
	code = x.single[uint8(w)]
	if n >= 2 {
		code = x.short[uint16(w)]
	}
	if code == EscapeCode {
		return code, 1
	}
	return code, int(t.decLen[code])
}

// Encode compresses src and appends the result to dst. Every input byte
// not covered by a symbol costs two output bytes (escape + literal).
func (t *Table) Encode(dst, src []byte) []byte {
	x := t.matcher()
	// Text usually halves or better; starting there saves most regrowth.
	dst = slices.Grow(dst, len(src)/2)
	i := 0
	for i+8 <= len(src) {
		c, l := t.match(x, binary.LittleEndian.Uint64(src[i:]), 8)
		if c == EscapeCode {
			dst = append(dst, EscapeCode)
			c = src[i]
		}
		dst = append(dst, c)
		i += l
	}
	// The last up-to-7 bytes are matched from a zero-padded copy, with the
	// remaining length bounding the symbols that may match.
	var tail [16]byte
	n := copy(tail[:], src[i:])
	for j := 0; j < n; {
		c, l := t.match(x, binary.LittleEndian.Uint64(tail[j:]), n-j)
		if c == EscapeCode {
			dst = append(dst, EscapeCode)
			c = tail[j]
		}
		dst = append(dst, c)
		j += l
	}
	return dst
}

// Decode decompresses src (produced by Encode) and appends to dst.
//
// The hot loop is one jump-table load and one unconditional 8-byte
// store per code: a symbol of length l writes all 8 bytes of its value
// into dst's spare capacity and advances by l, so the next write
// overwrites the spill. Callers should pre-size dst's capacity to the
// stored decompressed length (the format records it next to the encoded
// payload); then the whole decode performs zero allocations — only the
// last up-to-7 output bytes fall back to the bounded tail loop.
func (t *Table) Decode(dst, src []byte) ([]byte, error) {
	i := 0
	for {
		// fast loop: unconditional 8-byte stores while ≥8 bytes of spare
		// capacity remain past the write position
		o := len(dst)
		out := dst[:cap(dst)]
		lim := cap(dst) - (MaxSymbolLen - 1)
		for i < len(src) && o < lim {
			c := src[i]
			if c == EscapeCode {
				i++
				if i >= len(src) {
					return dst[:o], ErrCorrupt
				}
				out[o] = src[i]
				o++
				i++
				continue
			}
			l := int(t.decLen[c])
			if l == 0 {
				return dst[:o], ErrCorrupt
			}
			binary.LittleEndian.PutUint64(out[o:], t.decVal[c])
			o += l
			i++
		}
		dst = dst[:o]
		if i >= len(src) {
			return dst, nil
		}
		// tail: spare capacity is nearly exhausted — switch to exact-length
		// appends (within a pre-sized buffer these never reallocate; an
		// undersized buffer grows here and re-enters the fast loop)
		for n := 0; i < len(src) && n < MaxSymbolLen; n++ {
			c := src[i]
			if c == EscapeCode {
				i++
				if i >= len(src) {
					return dst, ErrCorrupt
				}
				dst = append(dst, src[i])
				i++
				continue
			}
			l := int(t.decLen[c])
			if l == 0 {
				return dst, ErrCorrupt
			}
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], t.decVal[c])
			dst = append(dst, buf[:l]...)
			i++
		}
		if i >= len(src) {
			return dst, nil
		}
	}
}

// Train builds a symbol table from sample strings. An empty or tiny sample
// yields an empty table (everything escapes). When the input exceeds the
// training budget, evenly spaced chunks are taken from across the whole
// input rather than just its head — real columns drift within a block, and
// a head-only sample would learn symbols for only the first distribution.
func Train(sample [][]byte) *Table { return new(Trainer).Train(sample) }

// Train is the package-level Train on tr's reusable counters; a caller
// that trains repeatedly keeps one Trainer instead of allocating its
// half-megabyte of counters per table. A Trainer is single-owner state.
func (tr *Trainer) Train(sample [][]byte) *Table {
	corpus := trainingCorpus(sample)
	t := &Table{enc: new(matchIndex)}
	t.fillMatcher()
	if len(corpus) == 0 {
		return t
	}
	if tr.pair == nil {
		tr.pair = make([]uint16, symSpace*symSpace)
	}
	for iter := 0; iter < buildIterations; iter++ {
		tr.count(t, corpus)
		tr.rebuild(t)
	}
	return t
}

// trainingCorpus concatenates the sample, or evenly spaced chunks of it
// when it exceeds maxSampleBytes. The result has at least 8 bytes of
// zeroed capacity past its length, so an 8-byte window can be loaded at
// every position.
func trainingCorpus(sample [][]byte) []byte {
	total := 0
	for _, s := range sample {
		total += len(s)
	}
	corpus := make([]byte, 0, min(total, maxSampleBytes+trainChunk)+8)
	if total <= maxSampleBytes {
		for _, s := range sample {
			corpus = append(corpus, s...)
		}
		return corpus
	}
	nChunks := maxSampleBytes / trainChunk
	stride := total / nChunks
	// walk the concatenation, copying `trainChunk` bytes every `stride`
	next := 0
	off := 0
	for _, s := range sample {
		for len(s) > 0 {
			if off+len(s) <= next {
				off += len(s)
				break
			}
			start := next - off
			if start < 0 {
				start = 0
			}
			end := start + trainChunk
			if end > len(s) {
				end = len(s)
			}
			corpus = append(corpus, s[start:end]...)
			if len(corpus) >= maxSampleBytes {
				return corpus
			}
			next += stride
			if next < off+end {
				next = off + end
			}
		}
	}
	return corpus
}

// While counting, a position of the corpus is either a table code
// (0..254) or, when no symbol covers it, litBase plus the input byte.
const (
	litBase  = 256
	symSpace = 512
	// histBuckets bounds the gain histogram rebuild uses to find the
	// selection cut; gains at or above the last bucket share it.
	histBuckets = 1 << 12
)

// candidate tracks the gain of a potential symbol during training.
type candidate struct {
	sym  Symbol
	gain int
}

// Trainer is the reusable state of table training: occurrence counters
// indexed by code (single) and by code pair (pair), the list of pairs
// seen, and the tables rebuild uses to merge and rank candidates. A
// corpus is at most maxSampleBytes+trainChunk bytes, so uint16 holds any
// pair count. The zero value is ready to use.
type Trainer struct {
	single  [symSpace]uint32
	pair    []uint16 // symSpace*symSpace; zero outside touched
	touched []uint32 // indexes of the non-zero pair counters
	cands   []candidate
	slots   []int32 // open-addressed symbol -> 1+index into cands
	hist    [histBuckets]uint16
}

// symbolOf returns the symbol a counting index stands for.
func (t *Table) symbolOf(idx uint32) Symbol {
	if idx < litBase {
		return t.symbols[idx]
	}
	return Symbol{Val: uint64(idx - litBase), Len: 1}
}

// count compresses the corpus with the current table and counts every
// symbol and every adjacent pair short enough to become one.
func (tr *Trainer) count(t *Table, corpus []byte) {
	padded := corpus[:cap(corpus)]
	prev, prevLen := uint32(0), MaxSymbolLen+1 // nothing pairs with the first symbol
	for i := 0; i < len(corpus); {
		c, l := t.match(t.enc, binary.LittleEndian.Uint64(padded[i:]), min(len(corpus)-i, 8))
		cur := uint32(c)
		if c == EscapeCode {
			cur = litBase + uint32(corpus[i])
		}
		tr.single[cur]++
		if prevLen+l <= MaxSymbolLen {
			p := prev*symSpace + cur
			if tr.pair[p] == 0 {
				tr.touched = append(tr.touched, p)
			}
			tr.pair[p]++
		}
		prev, prevLen = cur, l
		i += l
	}
}

// add credits gain to sym, merging with an earlier candidate for the same
// symbol: different pairs can concatenate to the same bytes.
func (tr *Trainer) add(sym Symbol, gain int) {
	mask := uint64(len(tr.slots) - 1)
	h := (sym.Val ^ uint64(sym.Len)<<59) * 0x9E3779B97F4A7C15
	for i := (h >> 32) & mask; ; i = (i + 1) & mask {
		s := tr.slots[i]
		if s == 0 {
			tr.cands = append(tr.cands, candidate{sym, gain})
			tr.slots[i] = int32(len(tr.cands))
			return
		}
		if tr.cands[s-1].sym == sym {
			tr.cands[s-1].gain += gain
			return
		}
	}
}

// rebuild turns the counters into the next generation's table: the
// MaxSymbols candidates of highest gain (count × length), ties broken by
// longer symbol, then smaller value, so the result is reproducible. The
// counters are left zeroed for the next count.
func (tr *Trainer) rebuild(t *Table) {
	size := 1024
	for size < 2*(symSpace+len(tr.touched)) {
		size *= 2
	}
	if cap(tr.slots) < size {
		tr.slots = make([]int32, size)
	}
	tr.slots = tr.slots[:size]
	clear(tr.slots)
	tr.cands = tr.cands[:0]
	for idx, c := range tr.single {
		if c != 0 {
			s := t.symbolOf(uint32(idx))
			tr.add(s, int(c)*int(s.Len))
			tr.single[idx] = 0
		}
	}
	for _, p := range tr.touched {
		joined, _ := concatSymbols(t.symbolOf(p/symSpace), t.symbolOf(p%symSpace))
		tr.add(joined, int(tr.pair[p])*int(joined.Len))
		tr.pair[p] = 0
	}
	tr.touched = tr.touched[:0]

	// A symbol seen once saves nothing (gain is count × length): drop
	// those. When more than MaxSymbols remain, nothing below the gain that
	// MaxSymbols of them reach can be selected, so only those at or above
	// that cut are sorted.
	clear(tr.hist[:])
	keep := tr.cands[:0]
	for _, c := range tr.cands {
		if c.gain > int(c.sym.Len) {
			keep = append(keep, c)
			tr.hist[min(c.gain, histBuckets-1)]++
		}
	}
	if len(keep) > MaxSymbols {
		cut, above := histBuckets-1, 0
		for ; cut > 0; cut-- {
			if above += int(tr.hist[cut]); above >= MaxSymbols {
				break
			}
		}
		all := keep
		keep = keep[:0]
		for _, c := range all {
			if c.gain >= cut {
				keep = append(keep, c)
			}
		}
	}
	slices.SortFunc(keep, func(a, b candidate) int {
		if a.gain != b.gain {
			return b.gain - a.gain
		}
		if a.sym.Len != b.sym.Len {
			return int(b.sym.Len) - int(a.sym.Len)
		}
		return cmp.Compare(a.sym.Val, b.sym.Val)
	})
	t.n = min(len(keep), MaxSymbols)
	clear(t.symbols[:])
	for i := 0; i < t.n; i++ {
		t.symbols[i] = keep[i].sym
	}
	t.buildDecode()
	t.fillMatcher()
}

// AppendTable serializes the table and appends it to dst:
// n:u8 then per symbol len:u8 + bytes.
func (t *Table) AppendTable(dst []byte) []byte {
	dst = append(dst, byte(t.n))
	for i := 0; i < t.n; i++ {
		s := t.symbols[i]
		dst = append(dst, s.Len)
		dst = append(dst, s.Bytes()...)
	}
	return dst
}

// TableFromBytes deserializes a table, returning it and bytes consumed.
func TableFromBytes(src []byte) (*Table, int, error) {
	if len(src) < 1 {
		return nil, 0, ErrCorrupt
	}
	n := int(src[0])
	if n > MaxSymbols {
		return nil, 0, ErrCorrupt
	}
	pos := 1
	t := &Table{n: n}
	for i := 0; i < n; i++ {
		if pos >= len(src) {
			return nil, 0, ErrCorrupt
		}
		l := int(src[pos])
		pos++
		if l < 1 || l > MaxSymbolLen || pos+l > len(src) {
			return nil, 0, ErrCorrupt
		}
		t.symbols[i] = makeSymbol(src[pos : pos+l])
		pos += l
	}
	t.buildDecode()
	return t, pos, nil
}
