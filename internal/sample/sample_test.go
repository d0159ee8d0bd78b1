package sample

import (
	"math/rand"
	"testing"

	"btrblocks/coldata"
)

func TestDefaultStrategySize(t *testing.T) {
	if Default.Size() != 640 {
		t.Fatalf("default sample size = %d, want 640 (1%% of 64k)", Default.Size())
	}
}

func TestRangesNonOverlappingAndCovering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1000 + rng.Intn(100000)
		s := Strategy{Runs: 1 + rng.Intn(20), RunLen: 1 + rng.Intn(200)}
		ranges := s.Ranges(n, rng)
		prevEnd := 0
		for i, r := range ranges {
			if r.Start < prevEnd {
				t.Fatalf("range %d overlaps previous (%+v)", i, ranges)
			}
			if r.End <= r.Start || r.End > n {
				t.Fatalf("range %d out of bounds: %+v (n=%d)", i, r, n)
			}
			prevEnd = r.End
		}
		if s.Size() < n && len(ranges) != s.Runs {
			t.Fatalf("expected %d runs, got %d", s.Runs, len(ranges))
		}
	}
}

func TestSmallBlockReturnsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := []int32{1, 2, 3}
	got := Values(src, Default, rng)
	if len(got) != 3 {
		t.Fatalf("small input should be returned whole, got %d values", len(got))
	}
}

func TestRunsSpreadAcrossBlock(t *testing.T) {
	// Every run must land in its own part of the block — the locality +
	// coverage compromise of Figure 2.
	rng := rand.New(rand.NewSource(3))
	n := 64000
	s := Default
	ranges := s.Ranges(n, rng)
	partLen := n / s.Runs
	for i, r := range ranges {
		lo, hi := i*partLen, (i+1)*partLen
		if i == s.Runs-1 {
			hi = n
		}
		if r.Start < lo || r.End > hi {
			t.Fatalf("run %d [%d,%d) escaped its part [%d,%d)", i, r.Start, r.End, lo, hi)
		}
	}
}

func TestTypedGathers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ints := make([]int32, 64000)
	doubles := make([]float64, 64000)
	strs := coldata.NewStringsBuilder(64000, 0)
	for i := range ints {
		ints[i] = int32(i)
		doubles[i] = float64(i)
		strs = strs.Append("v")
	}
	if got := Values(ints, Default, rand.New(rand.NewSource(4))); len(got) != 640 {
		t.Fatalf("int sample size %d", len(got))
	}
	if got := Values(doubles, Default, rand.New(rand.NewSource(4))); len(got) != 640 {
		t.Fatalf("double sample size %d", len(got))
	}
	if got := Strings(strs, Default, rng); got.Len() != 640 {
		t.Fatalf("string sample size %d", got.Len())
	}
}

func TestDeterministicForSeed(t *testing.T) {
	src := make([]int32, 64000)
	for i := range src {
		src[i] = int32(i)
	}
	a := Values(src, Default, rand.New(rand.NewSource(7)))
	b := Values(src, Default, rand.New(rand.NewSource(7)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling must be deterministic for a fixed seed")
		}
	}
}

func TestDegenerateStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if got := (Strategy{Runs: 0, RunLen: 64}).Ranges(1000, rng); got != nil {
		t.Fatal("zero runs should produce no ranges")
	}
	if got := (Strategy{Runs: 640, RunLen: 1}).Ranges(64000, rng); len(got) != 640 {
		t.Fatalf("single-tuple strategy: %d ranges", len(got))
	}
	if got := (Strategy{Runs: 1, RunLen: 640}).Ranges(64000, rng); len(got) != 1 || got[0].End-got[0].Start != 640 {
		t.Fatalf("single-range strategy wrong: %+v", got)
	}
}
