package roaring

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The per-value oracle: the set operations as they were first written,
// one Add per value. The container-wise algebra must reproduce its
// results byte for byte.

func oracleClone(a *Bitmap) *Bitmap {
	n := New()
	a.ForEach(func(v uint32) bool { n.Add(v); return true })
	return n
}

func oracleOr(a, b *Bitmap) *Bitmap {
	n := oracleClone(a)
	b.ForEach(func(v uint32) bool { n.Add(v); return true })
	return n
}

func oracleAnd(a, b *Bitmap) *Bitmap {
	n := New()
	a.ForEach(func(v uint32) bool {
		if b.Contains(v) {
			n.Add(v)
		}
		return true
	})
	return n
}

func oracleAndNot(a, b *Bitmap) *Bitmap {
	n := New()
	a.ForEach(func(v uint32) bool {
		if !b.Contains(v) {
			n.Add(v)
		}
		return true
	})
	return n
}

func oracleAddWords(b *Bitmap, base uint32, words []uint64) {
	for i := 0; i < 64*len(words); i++ {
		if words[i/64]>>(i%64)&1 != 0 {
			b.Add(base + uint32(i))
		}
	}
}

func oracleWords(b *Bitmap, lo, hi uint32) []uint64 {
	out := make([]uint64, (int(hi)-int(lo)+63)/64)
	b.ForEach(func(v uint32) bool {
		if v >= lo && v < hi {
			out[(v-lo)/64] |= 1 << ((v - lo) % 64)
		}
		return v < hi
	})
	return out
}

// rangeOf returns the values [lo, hi).
func rangeOf(lo, hi uint32) []uint32 {
	var out []uint32
	for v := uint64(lo); v < uint64(hi); v++ {
		out = append(out, uint32(v))
	}
	return out
}

// optimized builds a bitmap from values and run-optimizes it.
func optimized(values []uint32) *Bitmap {
	b := FromSlice(values)
	b.RunOptimize()
	return b
}

func sameBytes(t *testing.T, what string, got, want *Bitmap) {
	t.Helper()
	if g, w := got.AppendTo(nil), want.AppendTo(nil); !bytes.Equal(g, w) {
		t.Fatalf("%s: %d bytes (card %d), oracle %d bytes (card %d)", what, len(g), got.Cardinality(), len(w), want.Cardinality())
	}
	if got.IsEmpty() != (want.Cardinality() == 0) {
		t.Fatalf("%s: IsEmpty %v with oracle cardinality %d", what, got.IsEmpty(), want.Cardinality())
	}
}

// checkAlgebra compares Or, And, AndNot and Clone of a and b with the
// oracle.
func checkAlgebra(t *testing.T, name string, a, b *Bitmap) {
	t.Helper()
	sameBytes(t, name+": Or", Or(a, b), oracleOr(a, b))
	sameBytes(t, name+": And", And(a, b), oracleAnd(a, b))
	sameBytes(t, name+": AndNot", AndNot(a, b), oracleAndNot(a, b))
	sameBytes(t, name+": AndNot reversed", AndNot(b, a), oracleAndNot(b, a))
	sameBytes(t, name+": Clone", a.Clone(), oracleClone(a))
}

// TestAlgebraBoundaryTable runs the set operations over explicit edge
// rows: the last values of a container and the first of the next, the
// highest key, results of 4,095, 4,096 and 4,097 values (the array
// limit) reached both by adding and by the operations themselves, run
// containers ending at 0xFFFF, and empty results.
func TestAlgebraBoundaryTable(t *testing.T) {
	full := rangeOf(0, 4097)
	rows := []struct {
		name string
		a, b *Bitmap
	}{
		{"empty-empty", New(), New()},
		{"empty-left", New(), FromSlice([]uint32{1, 0xFFFF, 0x10000})},
		{"container-edge", FromSlice([]uint32{0xFFFE, 0xFFFF}), FromSlice([]uint32{0xFFFF, 0x10000, 0x10001})},
		{"highest-key", FromSlice([]uint32{0xFFFF0000, 0xFFFFFFFE, 0xFFFFFFFF}), FromSlice([]uint32{0xFFFFFFFF, 0xFFFEFFFF})},
		{"disjoint", FromSlice(rangeOf(0, 100)), FromSlice(rangeOf(100, 200))},
		{"same-set", FromSlice(full), FromSlice(full)},
		{"added-4095", FromSlice(rangeOf(0, 4095)), FromSlice([]uint32{70000})},
		{"added-4096", FromSlice(rangeOf(0, 4096)), FromSlice([]uint32{70000})},
		{"added-4097", FromSlice(full), FromSlice([]uint32{70000})},
		{"or-to-4096", FromSlice(rangeOf(0, 2048)), FromSlice(rangeOf(2048, 4096))},
		{"or-to-4097", FromSlice(rangeOf(0, 2049)), FromSlice(rangeOf(2048, 4097))},
		{"and-to-4095", FromSlice(rangeOf(0, 5000)), FromSlice(rangeOf(905, 6000))},
		{"and-to-4097", FromSlice(rangeOf(0, 5000)), FromSlice(rangeOf(903, 6000))},
		{"andnot-to-4096", FromSlice(full), FromSlice([]uint32{17})},
		{"andnot-to-4095", FromSlice(full), FromSlice([]uint32{0, 4096})},
		{"run-ends-at-ffff", optimized(rangeOf(0xFF00, 0x10000)), FromSlice([]uint32{0xFFFF, 0x10000})},
		{"runs-both-sides", optimized(rangeOf(0xE000, 0x10010)), optimized(rangeOf(0xF000, 0x20000))},
		{"run-vs-bitmap", optimized(rangeOf(0, 0x10000)), FromSlice(rangeOf(10, 9000))},
		{"andnot-to-empty", optimized(rangeOf(5, 6000)), FromSlice(rangeOf(0, 7000))},
	}
	for _, r := range rows {
		checkAlgebra(t, r.name, r.a, r.b)
	}
}

// TestAddWordsBoundaryTable adds block bitsets at unaligned bases that
// cross containers, onto empty and populated bitmaps, and reads windows
// back with Words, all against the oracle.
func TestAddWordsBoundaryTable(t *testing.T) {
	ones := func(n int) []uint64 {
		w := make([]uint64, (n+63)/64)
		for i := 0; i < n; i++ {
			w[i/64] |= 1 << (i % 64)
		}
		return w
	}
	every := func(n, k int) []uint64 {
		w := make([]uint64, (n+63)/64)
		for i := 0; i < n; i += k {
			w[i/64] |= 1 << (i % 64)
		}
		return w
	}
	rows := []struct {
		name  string
		start *Bitmap
		base  uint32
		words []uint64
	}{
		{"nothing", New(), 5, nil},
		{"zero-words", New(), 5, make([]uint64, 3)},
		{"aligned", New(), 0, ones(130)},
		{"unaligned-in-container", New(), 1000, every(500, 3)},
		{"unaligned-across-container", New(), 0xFFFF - 100, ones(300)},
		{"across-two-containers", New(), 30_000, every(140_000, 7)},
		{"block-of-64000", New(), 60_000, every(64_000, 2)},
		{"onto-array-to-4097", FromSlice(rangeOf(0, 4000)), 3990, ones(107)},
		{"onto-array-to-4096", FromSlice(rangeOf(0, 4000)), 3990, ones(106)},
		{"onto-bitmap", FromSlice(rangeOf(0, 5000)), 4999, every(1000, 2)},
		{"onto-next-key", FromSlice([]uint32{0x10000}), 0xFFC0 + 7, ones(200)},
		{"highest-key", New(), 0xFFFFFFFF - 70, ones(71)},
	}
	for _, r := range rows {
		got, want := r.start.Clone(), oracleClone(r.start)
		got.AddWords(r.base, r.words)
		oracleAddWords(want, r.base, r.words)
		sameBytes(t, r.name+": AddWords", got, want)
		for _, win := range [][2]uint32{{r.base, r.base + uint32(64*len(r.words))}, {r.base + 3, r.base + 1000}, {0, 70_000}, {0xFFC1, 0x10041}} {
			if win[1] < win[0] {
				continue
			}
			if g, w := got.Words(win[0], win[1], nil), oracleWords(want, win[0], win[1]); !slices.Equal(g, w) {
				t.Fatalf("%s: Words(%d, %d) differs from the oracle", r.name, win[0], win[1])
			}
		}
	}
}

// TestAlgebraRandomSweep pairs every adversarial boundary set with every
// other, raw and run-optimized, plus seeded random block bitsets, and
// compares each set operation and bridge with the oracle.
func TestAlgebraRandomSweep(t *testing.T) {
	sets := boundarySets(11)
	rng := rand.New(rand.NewSource(33))
	for k := 0; k < 6; k++ {
		var s []uint32
		lo := uint32(rng.Intn(1 << 18))
		for v := lo; v < lo+uint32(rng.Intn(150_000)); v++ {
			if rng.Intn(1+k*k) == 0 {
				s = append(s, v)
			}
		}
		sets = append(sets, s)
	}
	for i, va := range sets {
		for j, vb := range sets {
			for _, opt := range []bool{false, true} {
				a, _ := bitmapOf(va, opt)
				b, _ := bitmapOf(vb, !opt)
				checkAlgebra(t, fmt.Sprintf("sets %d,%d opt=%v", i, j, opt), a, b)
			}
		}
		a, _ := bitmapOf(va, i%2 == 0)
		words := make([]uint64, 1+rng.Intn(2000))
		for k := range words {
			words[k] = rng.Uint64() & rng.Uint64()
		}
		base := uint32(rng.Intn(1 << 18))
		got, want := a.Clone(), oracleClone(a)
		got.AddWords(base, words)
		oracleAddWords(want, base, words)
		sameBytes(t, fmt.Sprintf("set %d: AddWords(%d)", i, base), got, want)
		lo := uint32(rng.Intn(1 << 18))
		hi := lo + uint32(rng.Intn(200_000))
		if g, w := got.Words(lo, hi, make([]uint64, 5)), oracleWords(want, lo, hi); !slices.Equal(g, w) {
			t.Fatalf("set %d: Words(%d, %d) differs from the oracle", i, lo, hi)
		}
	}
}

// TestFromBytesRunRows pins which run containers FromBytes accepts: runs
// must ascend, stay apart and end inside their container. A run past
// 0xFFFF would otherwise count values that ToArray, Contains and the
// word-wise operations disagree about.
func TestFromBytesRunRows(t *testing.T) {
	rows := []struct {
		name string
		runs [][2]uint16 // start, length
		ok   bool
	}{
		{"ends-at-ffff", [][2]uint16{{0xFFFE, 1}}, true},
		{"whole-container", [][2]uint16{{0, 0xFFFF}}, true},
		{"single-last-value", [][2]uint16{{0xFFFF, 0}}, true},
		{"past-ffff-by-one", [][2]uint16{{0xFFFF, 1}}, false},
		{"past-ffff", [][2]uint16{{0xFFF0, 0x20}}, false},
		{"last-of-two-past-ffff", [][2]uint16{{5, 2}, {0xFFFE, 3}}, false},
		{"overlapping", [][2]uint16{{5, 10}, {12, 3}}, false},
		{"sharing-an-end", [][2]uint16{{5, 10}, {15, 3}}, false},
		{"adjacent", [][2]uint16{{5, 10}, {16, 3}}, true},
		{"descending", [][2]uint16{{50, 1}, {5, 1}}, false},
	}
	for _, r := range rows {
		src := binary.LittleEndian.AppendUint16(nil, 1) // one container
		src = binary.LittleEndian.AppendUint16(src, 3)  // key 3
		src = append(src, kindRun)
		src = binary.LittleEndian.AppendUint16(src, uint16(len(r.runs)))
		for _, run := range r.runs {
			src = binary.LittleEndian.AppendUint16(src, run[0])
			src = binary.LittleEndian.AppendUint16(src, run[1])
		}
		b, _, err := FromBytes(src)
		if r.ok != (err == nil) {
			t.Fatalf("%s: err %v, want ok=%v", r.name, err, r.ok)
		}
		if err != nil {
			continue
		}
		want := New()
		for _, run := range r.runs {
			want.AddRange(3<<16+uint32(run[0]), 3<<16+uint32(run[0])+uint32(run[1])+1)
		}
		sameBytes(t, r.name, b.Clone(), want)
	}
}
