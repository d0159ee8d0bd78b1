package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"btrblocks/internal/bitpack"
)

// TestCompareKernelEquivalence checks every generated compare kernel
// against cmpWords, the reference loop FastBP falls back to: per width
// 0-32 × pattern × operator (ranges, Eq as span 0, wrapping and empty
// ranges; sets at widths up to bitpack.MaxSetWidth), the two match words
// of a full block must be the words cmpWords ORs into a selection.
func TestCompareKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for w := uint(0); w <= 32; w++ {
		name := fmt.Sprintf("width=%02d", w)
		switch w {
		case 0:
			name += "/zero-width"
		case 32:
			name += "/full-width"
		}
		t.Run(name, func(t *testing.T) {
			top := uint64(1)<<w - 1
			for pname, xs := range comparePatterns(w, rng) {
				packed := bitpack.Pack(nil, xs[:], w)
				for rname, r := range compareRanges(top, xs, rng) {
					want := make([]uint64, 2)
					cmpWords(cmp[int64]{op: PredRange, lo: r[0], span: r[1]}, xs[:], want)
					if m0, m1 := bitpack.CompareRange(packed, w, r[0], r[1]); m0 != want[0] || m1 != want[1] {
						t.Fatalf("%s, range %s [%#x +%#x]: %#x %#x, want %#x %#x", pname, rname, r[0], r[1], m0, m1, want[0], want[1])
					}
				}
				if w > bitpack.MaxSetWidth {
					continue
				}
				for sname, set := range compareSets(top, xs, rng) {
					want := make([]uint64, 2)
					cmpWords(cmp[int64]{op: PredIn, span: 64*uint64(len(set)) - 1, set: set[:]}, xs[:], want)
					if m0, m1 := bitpack.CompareSet(packed, w, set); m0 != want[0] || m1 != want[1] {
						t.Fatalf("%s, set %s: %#x %#x, want %#x %#x", pname, sname, m0, m1, want[0], want[1])
					}
				}
			}
		})
	}
}

// comparePatterns returns full blocks of values of width w: all zero, all
// the largest, the two alternating, ascending, and random.
func comparePatterns(w uint, rng *rand.Rand) map[string]*[bitpack.BlockLen]uint32 {
	top := uint32(uint64(1)<<w - 1)
	out := map[string]*[bitpack.BlockLen]uint32{}
	add := func(name string, at func(i int) uint32) {
		var xs [bitpack.BlockLen]uint32
		for i := range xs {
			xs[i] = at(i) & top
		}
		out[name] = &xs
	}
	add("zeros", func(int) uint32 { return 0 })
	add("largest", func(int) uint32 { return top })
	add("alternating", func(i int) uint32 { return top * uint32(i%2) })
	add("ascending", func(i int) uint32 { return uint32(i) * 37 })
	add("random", func(int) uint32 { return rng.Uint32() })
	return out
}

// compareRanges returns (lo, span) pairs over values in [0, top]: Eq on
// present and absent values, all and none, inner ranges, ranges starting
// past top, and ranges that wrap past 2^64 from inside and from outside
// the values.
func compareRanges(top uint64, xs *[bitpack.BlockLen]uint32, rng *rand.Rand) map[string][2]uint64 {
	out := map[string][2]uint64{
		"eq 0":            {0, 0},
		"eq top":          {top, 0},
		"eq absent":       {top + 1, 0},
		"everything":      {0, math.MaxUint64},
		"all values":      {0, top},
		"inner third":     {top / 3, top / 3},
		"past top":        {top + 1, 1000},
		"wraps from top":  {top / 2, math.MaxUint64 - top/4},
		"wraps from past": {math.MaxUint64 - 2, top/2 + 3},
		"wraps, misses":   {math.MaxUint64 - 2, 1},
	}
	for i := 0; i < 4; i++ {
		x := uint64(xs[rng.Intn(len(xs))])
		out[fmt.Sprintf("eq present %d", i)] = [2]uint64{x, 0}
		out[fmt.Sprintf("random %d", i)] = [2]uint64{x, rng.Uint64() % (top + 2)}
	}
	return out
}

// compareSets returns sets over values in [0, top]: empty, full, one
// present member, and random ones.
func compareSets(top uint64, xs *[bitpack.BlockLen]uint32, rng *rand.Rand) map[string]*[64]uint64 {
	out := map[string]*[64]uint64{}
	add := func(name string, has func(x uint64) bool) {
		var set [64]uint64
		for x := uint64(0); x <= top; x++ {
			if has(x) {
				set[x/64] |= 1 << (x % 64)
			}
		}
		out[name] = &set
	}
	member := uint64(xs[rng.Intn(len(xs))])
	add("empty", func(uint64) bool { return false })
	add("full", func(uint64) bool { return true })
	add("one present", func(x uint64) bool { return x == member })
	add("random 1/2", func(uint64) bool { return rng.Intn(2) == 0 })
	add("random 1/16", func(uint64) bool { return rng.Intn(16) == 0 })
	return out
}
