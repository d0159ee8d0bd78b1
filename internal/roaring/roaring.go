// Package roaring implements Roaring bitmaps (Lemire et al.): compressed
// bitmaps over 32-bit keys that switch container representation based on
// local density. Three container kinds are supported — sorted arrays for
// sparse chunks, 8 KiB bitmaps for dense chunks, and run containers for
// clustered chunks — matching the CRoaring design the paper uses for NULL
// and exception tracking.
//
// Every set operation (Or, And, AndNot, Clone, AddRange, AddWords) works a
// container at a time on 1,024 words and stores its result canonically:
// an array container up to arrayMaxCard values, a bitmap container above,
// none when empty. Those are the kinds point Adds produce, so a bitmap
// built by any of them serializes exactly as one built value by value.
package roaring

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sort"
)

// arrayMaxCard is the cardinality above which an array container converts
// to a bitmap container (as in the Roaring format spec).
const arrayMaxCard = 4096

// ErrCorrupt is returned when deserializing malformed bytes.
var ErrCorrupt = errors.New("roaring: corrupt stream")

// Bitmap is a compressed set of uint32 values. The zero value is an empty
// bitmap ready for use.
type Bitmap struct {
	keys       []uint16
	containers []container
}

type container interface {
	add(v uint16) container
	contains(v uint16) bool
	card() int
	// forEach calls f for each value in ascending order until f returns
	// false; it reports whether iteration ran to completion.
	forEach(f func(uint16) bool) bool
	// forEachRange calls f for each maximal run [lo, hi) of consecutive
	// values, ascending, under the same contract as forEach.
	forEachRange(f func(lo, hi int) bool) bool
	// kind returns one of kindArray, kindBitmap, kindRun.
	kind() byte
}

const (
	kindArray  byte = 0
	kindBitmap byte = 1
	kindRun    byte = 2
)

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

// FromSlice builds a bitmap from (not necessarily sorted) values.
func FromSlice(values []uint32) *Bitmap {
	b := New()
	for _, v := range values {
		b.Add(v)
	}
	return b
}

func (b *Bitmap) containerIndex(key uint16) (int, bool) {
	i := sort.Search(len(b.keys), func(i int) bool { return b.keys[i] >= key })
	return i, i < len(b.keys) && b.keys[i] == key
}

// Add inserts v into the bitmap.
func (b *Bitmap) Add(v uint32) {
	key := uint16(v >> 16)
	low := uint16(v)
	i, ok := b.containerIndex(key)
	if ok {
		b.containers[i] = b.containers[i].add(low)
		return
	}
	b.insertContainerAt(i, key, arrayContainer{low})
}

func (b *Bitmap) insertContainerAt(i int, key uint16, c container) {
	b.keys = append(b.keys, 0)
	copy(b.keys[i+1:], b.keys[i:])
	b.keys[i] = key
	b.containers = append(b.containers, nil)
	copy(b.containers[i+1:], b.containers[i:])
	b.containers[i] = c
}

// orContainer merges the values of w into the container at key, adding
// one if there is none, and stores the result canonically (fromWords).
func (b *Bitmap) orContainer(key uint16, w *[1024]uint64) {
	i, ok := b.containerIndex(key)
	if ok {
		orWords(b.containers[i], w)
		b.containers[i] = fromWords(w)
	} else if c := fromWords(w); c != nil {
		b.insertContainerAt(i, key, c)
	}
}

// AddRange inserts all values in [lo, hi), a container at a time with
// word-wide masks.
func (b *Bitmap) AddRange(lo, hi uint32) {
	if hi <= lo {
		return
	}
	last := hi - 1 // inclusive from here on
	for key := lo >> 16; key <= last>>16; key++ {
		clo, chi := uint16(0), uint16(0xFFFF)
		if key == lo>>16 {
			clo = uint16(lo)
		}
		if key == last>>16 {
			chi = uint16(last)
		}
		var w [1024]uint64
		setWordRange(&w, clo, chi)
		b.orContainer(uint16(key), &w)
	}
}

// AddWords adds base+i for every set bit i of words (bit i is bit i%64
// of words[i/64]): the bridge from a block's bitset to a column's
// selection. base need not be word- or container-aligned, and the values
// may span several containers.
func (b *Bitmap) AddWords(base uint32, words []uint64) {
	end := uint64(base) + 64*uint64(len(words))
	for key := uint64(base) >> 16; key<<16 < end && key <= 0xFFFF; key++ {
		var w [1024]uint64
		for k := range w {
			w[k] = bitsAt(words, int(key<<16+64*uint64(k))-int(base))
		}
		b.orContainer(uint16(key), &w)
	}
}

// Words returns the values in [lo, hi) as a bitset rebased to zero (bit
// v-lo set for every value v), reusing dst's storage when it is large
// enough: the bridge from a column's selection to one block's bitset.
func (b *Bitmap) Words(lo, hi uint32, dst []uint64) []uint64 {
	n := int(hi) - int(lo)
	if n <= 0 {
		return dst[:0]
	}
	nw := (n + 63) / 64
	if cap(dst) < nw {
		dst = make([]uint64, nw)
	}
	dst = dst[:nw]
	clear(dst)
	i, _ := b.containerIndex(uint16(lo >> 16))
	for ; i < len(b.keys) && uint32(b.keys[i]) <= (hi-1)>>16; i++ {
		var w [1024]uint64
		orWords(b.containers[i], &w)
		start := int(b.keys[i])<<16 - int(lo) // the bit of dst for the container's value 0
		for d := max(0, start/64); d < nw && 64*d < start+1<<16; d++ {
			dst[d] |= bitsAt(w[:], 64*d-start)
		}
	}
	if n%64 != 0 {
		dst[nw-1] &= 1<<(n%64) - 1
	}
	return dst
}

// Contains reports whether v is in the bitmap.
func (b *Bitmap) Contains(v uint32) bool {
	i, ok := b.containerIndex(uint16(v >> 16))
	return ok && b.containers[i].contains(uint16(v))
}

// Cardinality returns the number of values in the bitmap.
func (b *Bitmap) Cardinality() int {
	n := 0
	for _, c := range b.containers {
		n += c.card()
	}
	return n
}

// IsEmpty reports whether the bitmap contains no values. Containers are
// never left empty (the set operations drop an emptied container and
// FromBytes drops empty ones), so this is O(1) on the container directory
// instead of a full cardinality walk.
func (b *Bitmap) IsEmpty() bool { return len(b.keys) == 0 }

// ForEach calls f for every value in ascending order until f returns false.
func (b *Bitmap) ForEach(f func(uint32) bool) {
	for i, c := range b.containers {
		base := uint32(b.keys[i]) << 16
		if !c.forEach(func(low uint16) bool { return f(base | uint32(low)) }) {
			return
		}
	}
}

// ForEachRange calls f for every run [lo, hi) of consecutive values in
// ascending order until f returns false — one call per run instead of
// ForEach's one per value. Runs are maximal within a 65536-value chunk; a
// run that crosses a chunk boundary arrives as adjacent calls.
func (b *Bitmap) ForEachRange(f func(lo, hi uint64) bool) {
	for i, c := range b.containers {
		base := uint64(b.keys[i]) << 16
		if !c.forEachRange(func(lo, hi int) bool { return f(base+uint64(lo), base+uint64(hi)) }) {
			return
		}
	}
}

// ToArray returns all values in ascending order.
func (b *Bitmap) ToArray() []uint32 {
	out := make([]uint32, 0, b.Cardinality())
	b.ForEach(func(v uint32) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Equals reports whether two bitmaps contain the same set of values.
func (b *Bitmap) Equals(o *Bitmap) bool {
	n := b.Cardinality()
	return n == o.Cardinality() && And(b, o).Cardinality() == n
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap { return combine(b, New(), opOr) }

// Or returns the union of b and o as a new bitmap.
func Or(b, o *Bitmap) *Bitmap { return combine(b, o, opOr) }

// And returns the intersection of b and o as a new bitmap.
func And(b, o *Bitmap) *Bitmap { return combine(b, o, opAnd) }

// AndNot returns b \ o as a new bitmap.
func AndNot(b, o *Bitmap) *Bitmap { return combine(b, o, opAndNot) }

const (
	opOr = iota
	opAnd
	opAndNot
)

// combine is the one set algebra behind Or, And, AndNot and Clone: per
// key, each side's container becomes 1,024 words, op merges them a word
// at a time, and the result is stored canonically (fromWords).
func combine(a, b *Bitmap, op int) *Bitmap {
	out := New()
	for i, j := 0, 0; i < len(a.keys) || j < len(b.keys); {
		var ca, cb container
		var key uint16
		switch {
		case j == len(b.keys) || i < len(a.keys) && a.keys[i] < b.keys[j]:
			key, ca = a.keys[i], a.containers[i]
			i++
		case i == len(a.keys) || b.keys[j] < a.keys[i]:
			key, cb = b.keys[j], b.containers[j]
			j++
		default:
			key, ca, cb = a.keys[i], a.containers[i], b.containers[j]
			i, j = i+1, j+1
		}
		if ca == nil && op != opOr || cb == nil && op == opAnd {
			continue // the result at key is empty
		}
		var wa, wb [1024]uint64
		orWords(ca, &wa)
		orWords(cb, &wb)
		for k := range wa {
			switch op {
			case opOr:
				wa[k] |= wb[k]
			case opAnd:
				wa[k] &= wb[k]
			default:
				wa[k] &^= wb[k]
			}
		}
		if c := fromWords(&wa); c != nil {
			out.keys = append(out.keys, key)
			out.containers = append(out.containers, c)
		}
	}
	return out
}

// bitsAt returns the 64 bits of src that start at bit off; bits before
// or past src read as zero.
func bitsAt(src []uint64, off int) uint64 {
	switch {
	case len(src) == 0 || off <= -64 || off >= 64*len(src):
		return 0
	case off < 0:
		return src[0] << uint(-off)
	}
	i, s := off/64, uint(off%64)
	w := src[i] >> s
	if s != 0 && i+1 < len(src) {
		w |= src[i+1] << (64 - s)
	}
	return w
}

// orWords sets bit v of w for every value v of c (none for a nil c).
func orWords(c container, w *[1024]uint64) {
	switch cc := c.(type) {
	case arrayContainer:
		for _, v := range cc {
			w[v>>6] |= 1 << (v & 63)
		}
	case *bitmapContainer:
		for k, x := range cc.words {
			w[k] |= x
		}
	case runContainer:
		for _, iv := range cc {
			setWordRange(w, iv.start, iv.start+iv.length)
		}
	}
}

// fromWords stores the values of w the way point Adds build a container:
// nil when there are none, an array up to arrayMaxCard values, a bitmap
// above.
func fromWords(w *[1024]uint64) container {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	switch {
	case n == 0:
		return nil
	case n > arrayMaxCard:
		return &bitmapContainer{words: *w, n: n}
	}
	a := make(arrayContainer, 0, n)
	for k, x := range w {
		for ; x != 0; x &= x - 1 {
			a = append(a, uint16(k<<6+bits.TrailingZeros64(x)))
		}
	}
	return a
}

// setWordRange sets bits [lo, hi] of w with word-wide masks.
func setWordRange(w *[1024]uint64, lo, hi uint16) {
	w1, w2 := int(lo>>6), int(hi>>6)
	for k := w1; k <= w2; k++ {
		mask := ^uint64(0)
		if k == w1 {
			mask &= ^uint64(0) << (lo & 63)
		}
		if k == w2 {
			mask &= ^uint64(0) >> (63 - hi&63)
		}
		w[k] |= mask
	}
}

// addByWords adds v to c through its words: how a full array container
// becomes a bitmap and a run container takes a point insert.
func addByWords(c container, v uint16) container {
	var w [1024]uint64
	orWords(c, &w)
	w[v>>6] |= 1 << (v & 63)
	return fromWords(&w)
}

// RunOptimize converts containers to run containers where that is smaller.
func (b *Bitmap) RunOptimize() {
	for i, c := range b.containers {
		curBytes := 8192
		switch c.kind() {
		case kindArray:
			curBytes = 2 * c.card()
		case kindRun:
			continue
		}
		runs := 0
		c.forEachRange(func(int, int) bool { runs++; return true })
		if 2+4*runs >= curBytes {
			continue
		}
		rc := make(runContainer, 0, runs)
		c.forEachRange(func(lo, hi int) bool {
			rc = append(rc, interval{start: uint16(lo), length: uint16(hi - lo - 1)})
			return true
		})
		b.containers[i] = rc
	}
}

// --- array container ---

type arrayContainer []uint16

func (a arrayContainer) kind() byte { return kindArray }
func (a arrayContainer) card() int  { return len(a) }

func (a arrayContainer) contains(v uint16) bool {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return i < len(a) && a[i] == v
}

func (a arrayContainer) add(v uint16) container {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	switch {
	case i < len(a) && a[i] == v:
		return a
	case len(a) == arrayMaxCard:
		return addByWords(a, v)
	}
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = v
	return a
}

func (a arrayContainer) forEach(f func(uint16) bool) bool {
	for _, v := range a {
		if !f(v) {
			return false
		}
	}
	return true
}

func (a arrayContainer) forEachRange(f func(lo, hi int) bool) bool {
	for i := 0; i < len(a); {
		j := i + 1
		for j < len(a) && a[j] == a[j-1]+1 {
			j++
		}
		if !f(int(a[i]), int(a[j-1])+1) {
			return false
		}
		i = j
	}
	return true
}

// --- bitmap container ---

type bitmapContainer struct {
	words [1024]uint64
	n     int
}

func (b *bitmapContainer) kind() byte { return kindBitmap }
func (b *bitmapContainer) card() int  { return b.n }

func (b *bitmapContainer) contains(v uint16) bool {
	return b.words[v>>6]&(1<<uint(v&63)) != 0
}

func (b *bitmapContainer) add(v uint16) container {
	w, bit := v>>6, uint(v&63)
	if b.words[w]&(1<<bit) == 0 {
		b.words[w] |= 1 << bit
		b.n++
	}
	return b
}

func (b *bitmapContainer) forEach(f func(uint16) bool) bool {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !f(uint16(wi<<6 + bit)) {
				return false
			}
			w &= w - 1
		}
	}
	return true
}

func (b *bitmapContainer) forEachRange(f func(lo, hi int) bool) bool {
	lo := -1 // start of the run being walked, -1 between runs
	for wi, w := range b.words {
		for bit := 0; bit < 64; {
			if lo < 0 { // find the next set bit
				if w>>bit == 0 {
					break
				}
				bit += bits.TrailingZeros64(w >> bit)
				lo = wi<<6 + bit
			} else { // find the next clear bit; none left means the run goes on
				bit += bits.TrailingZeros64(^w >> bit)
				if bit >= 64 {
					break
				}
				if !f(lo, wi<<6+bit) {
					return false
				}
				lo = -1
			}
		}
	}
	return lo < 0 || f(lo, 1<<16)
}

// --- run container ---

type interval struct {
	start  uint16
	length uint16 // run covers [start, start+length]
}

type runContainer []interval

func (r runContainer) kind() byte { return kindRun }

func (r runContainer) card() int {
	n := 0
	for _, iv := range r {
		n += int(iv.length) + 1
	}
	return n
}

func (r runContainer) contains(v uint16) bool {
	i := sort.Search(len(r), func(i int) bool { return r[i].start > v })
	if i == 0 {
		return false
	}
	iv := r[i-1]
	return uint32(v) <= uint32(iv.start)+uint32(iv.length)
}

// add converts back to the dynamic representation: runs are built by
// RunOptimize and deserialization only.
func (r runContainer) add(v uint16) container { return addByWords(r, v) }

func (r runContainer) forEach(f func(uint16) bool) bool {
	for _, iv := range r {
		for v := uint32(iv.start); v <= uint32(iv.start)+uint32(iv.length); v++ {
			if !f(uint16(v)) {
				return false
			}
		}
	}
	return true
}

func (r runContainer) forEachRange(f func(lo, hi int) bool) bool {
	for _, iv := range r {
		if !f(int(iv.start), int(iv.start)+int(iv.length)+1) {
			return false
		}
	}
	return true
}

// --- serialization ---

// AppendTo serializes the bitmap and appends it to dst. Layout:
//
//	nContainers:u16 then per container:
//	  key:u16 kind:u8 payload
//	  array:  card:u16 values (card × u16)
//	  bitmap: 8192 bytes
//	  run:    nRuns:u16 runs (nRuns × (start:u16 len:u16))
func (b *Bitmap) AppendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(b.keys)))
	for i, c := range b.containers {
		dst = binary.LittleEndian.AppendUint16(dst, b.keys[i])
		dst = append(dst, c.kind())
		switch cc := c.(type) {
		case arrayContainer:
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(cc)))
			for _, v := range cc {
				dst = binary.LittleEndian.AppendUint16(dst, v)
			}
		case *bitmapContainer:
			for _, w := range cc.words {
				dst = binary.LittleEndian.AppendUint64(dst, w)
			}
		case runContainer:
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(cc)))
			for _, iv := range cc {
				dst = binary.LittleEndian.AppendUint16(dst, iv.start)
				dst = binary.LittleEndian.AppendUint16(dst, iv.length)
			}
		}
	}
	return dst
}

// SerializedSize returns the exact byte size AppendTo would produce.
func (b *Bitmap) SerializedSize() int {
	size := 2
	for _, c := range b.containers {
		size += 3
		switch cc := c.(type) {
		case arrayContainer:
			size += 2 + 2*len(cc)
		case *bitmapContainer:
			size += 8192
		case runContainer:
			size += 2 + 4*len(cc)
		}
	}
	return size
}

// FromBytes deserializes a bitmap from src, returning it and the number of
// bytes consumed.
func FromBytes(src []byte) (*Bitmap, int, error) {
	if len(src) < 2 {
		return nil, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint16(src))
	pos := 2
	b := New()
	prevKey := -1
	for i := 0; i < n; i++ {
		if pos+3 > len(src) {
			return nil, 0, ErrCorrupt
		}
		key := binary.LittleEndian.Uint16(src[pos:])
		kind := src[pos+2]
		pos += 3
		if int(key) <= prevKey {
			return nil, 0, ErrCorrupt
		}
		prevKey = int(key)
		var c container
		switch kind {
		case kindArray:
			if pos+2 > len(src) {
				return nil, 0, ErrCorrupt
			}
			card := int(binary.LittleEndian.Uint16(src[pos:]))
			pos += 2
			if pos+2*card > len(src) || card > arrayMaxCard {
				return nil, 0, ErrCorrupt
			}
			a := make(arrayContainer, card)
			for j := range a {
				a[j] = binary.LittleEndian.Uint16(src[pos:])
				pos += 2
			}
			for j := 1; j < len(a); j++ {
				if a[j] <= a[j-1] {
					return nil, 0, ErrCorrupt
				}
			}
			c = a
		case kindBitmap:
			if pos+8192 > len(src) {
				return nil, 0, ErrCorrupt
			}
			bc := &bitmapContainer{}
			for j := 0; j < 1024; j++ {
				bc.words[j] = binary.LittleEndian.Uint64(src[pos:])
				bc.n += bits.OnesCount64(bc.words[j])
				pos += 8
			}
			c = bc
		case kindRun:
			if pos+2 > len(src) {
				return nil, 0, ErrCorrupt
			}
			nr := int(binary.LittleEndian.Uint16(src[pos:]))
			pos += 2
			if pos+4*nr > len(src) {
				return nil, 0, ErrCorrupt
			}
			rc := make(runContainer, nr)
			for j := range rc {
				rc[j].start = binary.LittleEndian.Uint16(src[pos:])
				rc[j].length = binary.LittleEndian.Uint16(src[pos+2:])
				pos += 4
			}
			for j, iv := range rc {
				// Runs ascend, apart, and end inside the container.
				if j > 0 && uint32(iv.start) <= uint32(rc[j-1].start)+uint32(rc[j-1].length) ||
					uint32(iv.start)+uint32(iv.length) > 0xFFFF {
					return nil, 0, ErrCorrupt
				}
			}
			c = rc
		default:
			return nil, 0, ErrCorrupt
		}
		if c.card() == 0 {
			// AppendTo never writes an empty container; tolerate one in the
			// input but drop it so the no-empty-containers invariant (which
			// IsEmpty relies on) holds for deserialized bitmaps too.
			continue
		}
		b.keys = append(b.keys, key)
		b.containers = append(b.containers, c)
	}
	return b, pos, nil
}
