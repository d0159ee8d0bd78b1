package btrblocks

import (
	"math/rand"
	"reflect"
	"testing"

	"btrblocks/coldata"
	"btrblocks/internal/roaring"
)

// densifyReference is the per-row Contains formulation densify replaced:
// a NULL row takes the last non-NULL value before it, or zero.
func densifyReference[T any](src []T, nulls *roaring.Bitmap) []T {
	out := append([]T(nil), src...)
	var last T
	for i := range out {
		if nulls.Contains(uint32(i)) {
			out[i] = last
		} else {
			last = out[i]
		}
	}
	return out
}

func TestDensifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		ints := make([]int32, n)
		doubles := make([]float64, n)
		strs := make([]string, n)
		nulls := roaring.New()
		density := rng.Intn(4) // 0: a few NULLs ... 3: mostly NULL
		for i := 0; i < n; i++ {
			ints[i] = int32(rng.Intn(1000)) + 1
			doubles[i] = float64(ints[i]) / 8
			strs[i] = string(rune('a'+ints[i]%26)) + "x"
			if rng.Intn(4) < density || (trial%7 == 0 && i < 3) {
				nulls.Add(uint32(i))
			}
		}
		if nulls.IsEmpty() {
			nulls.Add(uint32(rng.Intn(n)))
		}
		nulls.RunOptimize()
		if got, want := densify(ints, nulls), densifyReference(ints, nulls); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ints\n got %v\nwant %v", trial, got, want)
		}
		if got, want := densify(doubles, nulls), densifyReference(doubles, nulls); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: doubles differ", trial)
		}
		got := densifyStrings(coldata.MakeStrings(strs), nulls)
		want := coldata.MakeStrings(densifyReference(strs, nulls))
		if !got.Equal(want) {
			t.Fatalf("trial %d: strings differ", trial)
		}
	}
}
