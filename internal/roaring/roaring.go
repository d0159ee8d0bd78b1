// Package roaring implements Roaring bitmaps (Lemire et al.): compressed
// bitmaps over 32-bit keys that switch container representation based on
// local density. Three container kinds are supported — sorted arrays for
// sparse chunks, 8 KiB bitmaps for dense chunks, and run containers for
// clustered chunks — matching the CRoaring design the paper uses for NULL
// and exception tracking.
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
	remove(v uint16) container
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

// AddRange inserts all values in [lo, hi). It works a container at a
// time — word fills on bitmap containers, one splice on array
// containers, interval merges on run containers — instead of one
// sorted-insert per value, and produces the same canonical container
// kinds as point Adds (array up to arrayMaxCard, bitmap beyond), so a
// range-built bitmap serializes byte-identically to an Add-built one.
func (b *Bitmap) AddRange(lo, hi uint32) {
	if hi <= lo {
		return
	}
	last := hi - 1 // inclusive from here on
	for key := lo >> 16; ; key++ {
		clo, chi := uint16(0), uint16(0xFFFF)
		if key == lo>>16 {
			clo = uint16(lo)
		}
		if key == last>>16 {
			chi = uint16(last)
		}
		i, ok := b.containerIndex(uint16(key))
		if ok {
			b.containers[i] = addRangeTo(b.containers[i], clo, chi)
		} else {
			b.insertContainerAt(i, uint16(key), newRangeContainer(clo, chi))
		}
		if key == last>>16 {
			return
		}
	}
}

// newRangeContainer builds a fresh container holding [lo, hi], in the
// same representation point Adds would have produced.
func newRangeContainer(lo, hi uint16) container {
	n := int(hi) - int(lo) + 1
	if n > arrayMaxCard {
		bc := newBitmapContainer()
		bc.setRange(lo, hi)
		return bc
	}
	a := make(arrayContainer, 0, n)
	for v := uint32(lo); v <= uint32(hi); v++ {
		a = append(a, uint16(v))
	}
	return a
}

func addRangeTo(c container, lo, hi uint16) container {
	switch cc := c.(type) {
	case arrayContainer:
		return cc.addRange(lo, hi)
	case *bitmapContainer:
		cc.setRange(lo, hi)
		return cc
	case runContainer:
		return cc.addRange(lo, hi)
	}
	return c
}

// Remove deletes v from the bitmap if present.
func (b *Bitmap) Remove(v uint32) {
	key := uint16(v >> 16)
	i, ok := b.containerIndex(key)
	if !ok {
		return
	}
	c := b.containers[i].remove(uint16(v))
	if c.card() == 0 {
		b.keys = append(b.keys[:i], b.keys[i+1:]...)
		b.containers = append(b.containers[:i], b.containers[i+1:]...)
		return
	}
	b.containers[i] = c
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
// never left empty (Remove deletes a drained container and FromBytes
// drops empty ones), so this is O(1) on the container directory instead
// of a full cardinality walk.
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
	if b.Cardinality() != o.Cardinality() {
		return false
	}
	eq := true
	b.ForEach(func(v uint32) bool {
		if !o.Contains(v) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	n := New()
	b.ForEach(func(v uint32) bool {
		n.Add(v)
		return true
	})
	return n
}

// Or returns the union of b and o as a new bitmap.
func Or(b, o *Bitmap) *Bitmap {
	n := b.Clone()
	o.ForEach(func(v uint32) bool {
		n.Add(v)
		return true
	})
	return n
}

// And returns the intersection of b and o as a new bitmap.
func And(b, o *Bitmap) *Bitmap {
	n := New()
	b.ForEach(func(v uint32) bool {
		if o.Contains(v) {
			n.Add(v)
		}
		return true
	})
	return n
}

// AndNot returns b \ o as a new bitmap.
func AndNot(b, o *Bitmap) *Bitmap {
	n := New()
	b.ForEach(func(v uint32) bool {
		if !o.Contains(v) {
			n.Add(v)
		}
		return true
	})
	return n
}

// Rank returns the number of values <= v.
func (b *Bitmap) Rank(v uint32) int {
	n := 0
	b.ForEach(func(x uint32) bool {
		if x > v {
			return false
		}
		n++
		return true
	})
	return n
}

// RunOptimize converts containers to run containers where that is smaller.
func (b *Bitmap) RunOptimize() {
	for i, c := range b.containers {
		runs := countRuns(c)
		runBytes := 2 + 4*runs
		var curBytes int
		switch c.kind() {
		case kindArray:
			curBytes = 2 * c.card()
		case kindBitmap:
			curBytes = 8192
		default:
			continue
		}
		if runBytes < curBytes {
			b.containers[i] = toRun(c)
		}
	}
}

func countRuns(c container) int {
	runs := 0
	prev := -2
	c.forEach(func(v uint16) bool {
		if int(v) != prev+1 {
			runs++
		}
		prev = int(v)
		return true
	})
	return runs
}

func toRun(c container) runContainer {
	var rc runContainer
	prev := -2
	c.forEach(func(v uint16) bool {
		if int(v) == prev+1 {
			rc[len(rc)-1].length++
		} else {
			rc = append(rc, interval{start: v})
		}
		prev = int(v)
		return true
	})
	return rc
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
	if i < len(a) && a[i] == v {
		return a
	}
	if len(a)+1 > arrayMaxCard {
		bc := newBitmapContainer()
		for _, x := range a {
			bc.set(x)
		}
		bc.set(v)
		return bc
	}
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = v
	return a
}

// addRange inserts [lo, hi] with one splice, converting to a bitmap
// container when the merged cardinality crosses arrayMaxCard (the same
// threshold point Adds convert at).
func (a arrayContainer) addRange(lo, hi uint16) container {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= lo })
	j := sort.Search(len(a), func(i int) bool { return a[i] > hi })
	rangeLen := int(hi) - int(lo) + 1
	merged := len(a) - (j - i) + rangeLen
	if merged > arrayMaxCard {
		bc := newBitmapContainer()
		for _, x := range a {
			bc.set(x)
		}
		bc.setRange(lo, hi)
		return bc
	}
	var out arrayContainer
	if cap(a) >= merged {
		out = a[:merged] // splice in place, like add's append path
	} else {
		newCap := merged + merged/4
		if newCap > arrayMaxCard {
			newCap = arrayMaxCard
		}
		out = make(arrayContainer, merged, newCap)
		copy(out, a[:i])
	}
	copy(out[i+rangeLen:], a[j:]) // memmove-safe when out aliases a
	for v, k := uint32(lo), i; v <= uint32(hi); v, k = v+1, k+1 {
		out[k] = uint16(v)
	}
	return out
}

func (a arrayContainer) remove(v uint16) container {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	if i >= len(a) || a[i] != v {
		return a
	}
	return append(a[:i], a[i+1:]...)
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

func newBitmapContainer() *bitmapContainer { return &bitmapContainer{} }

func (b *bitmapContainer) kind() byte { return kindBitmap }
func (b *bitmapContainer) card() int  { return b.n }

func (b *bitmapContainer) set(v uint16) {
	w, bit := v>>6, uint(v&63)
	if b.words[w]&(1<<bit) == 0 {
		b.words[w] |= 1 << bit
		b.n++
	}
}

// setRange sets every bit in [lo, hi] with word-wide masks.
func (b *bitmapContainer) setRange(lo, hi uint16) {
	w1, w2 := int(lo>>6), int(hi>>6)
	for w := w1; w <= w2; w++ {
		mask := ^uint64(0)
		if w == w1 {
			mask &= ^uint64(0) << (lo & 63)
		}
		if w == w2 {
			mask &= ^uint64(0) >> (63 - hi&63)
		}
		b.n += bits.OnesCount64(mask &^ b.words[w])
		b.words[w] |= mask
	}
}

func (b *bitmapContainer) contains(v uint16) bool {
	return b.words[v>>6]&(1<<uint(v&63)) != 0
}

func (b *bitmapContainer) add(v uint16) container {
	b.set(v)
	return b
}

func (b *bitmapContainer) remove(v uint16) container {
	w, bit := v>>6, uint(v&63)
	if b.words[w]&(1<<bit) != 0 {
		b.words[w] &^= 1 << bit
		b.n--
	}
	if b.n < arrayMaxCard {
		a := make(arrayContainer, 0, b.n)
		b.forEach(func(v uint16) bool {
			a = append(a, v)
			return true
		})
		return a
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

func (r runContainer) add(v uint16) container {
	// Runs are built by RunOptimize/deserialization; point inserts convert
	// back to the dynamic representation first.
	a := make(arrayContainer, 0, r.card())
	r.forEach(func(x uint16) bool {
		a = append(a, x)
		return true
	})
	var c container = a
	if len(a) > arrayMaxCard {
		bc := newBitmapContainer()
		for _, x := range a {
			bc.set(x)
		}
		c = bc
	}
	return c.add(v)
}

// addRange merges [lo, hi] into the interval list, coalescing
// overlapping and adjacent runs, and stays a run container.
func (r runContainer) addRange(lo, hi uint16) container {
	out := make(runContainer, 0, len(r)+1)
	k := 0
	for k < len(r) && uint32(r[k].start)+uint32(r[k].length)+1 < uint32(lo) {
		out = append(out, r[k])
		k++
	}
	start, end := uint32(lo), uint32(hi)
	for k < len(r) && uint32(r[k].start) <= end+1 {
		if uint32(r[k].start) < start {
			start = uint32(r[k].start)
		}
		if e := uint32(r[k].start) + uint32(r[k].length); e > end {
			end = e
		}
		k++
	}
	out = append(out, interval{start: uint16(start), length: uint16(end - start)})
	return append(out, r[k:]...)
}

func (r runContainer) remove(v uint16) container {
	a := make(arrayContainer, 0, r.card())
	r.forEach(func(x uint16) bool {
		a = append(a, x)
		return true
	})
	return a.remove(v)
}

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
			bc := newBitmapContainer()
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
			for j := 1; j < len(rc); j++ {
				if uint32(rc[j].start) <= uint32(rc[j-1].start)+uint32(rc[j-1].length) {
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
