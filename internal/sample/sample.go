// Package sample implements the compression-ratio estimation sampling of
// §3.1: multiple small runs of consecutive values chosen from random
// positions inside non-overlapping parts of the block (Figure 2). The
// strategy (number of runs × run length) is parameterized so the Figure 5
// and Figure 6 experiments can sweep alternatives, from single random
// tuples to one contiguous range.
package sample

import (
	"math/rand"

	"btrblocks/coldata"
)

// Strategy describes a sampling scheme: Runs runs of RunLen consecutive
// tuples each. {1, n} is a single range; {n, 1} is random single tuples.
type Strategy struct {
	Runs   int
	RunLen int
}

// Default is the paper's production choice: 10 runs × 64 tuples = 1% of a
// 64,000-value block.
var Default = Strategy{Runs: 10, RunLen: 64}

// Size returns the number of sampled tuples.
func (s Strategy) Size() int { return s.Runs * s.RunLen }

// Range is a half-open [Start, End) interval of row positions.
type Range struct{ Start, End int }

// Ranges picks the sampled intervals for a block of n values. The block is
// divided into Runs non-overlapping parts and one run is placed at a
// random position inside each part, preserving both locality (consecutive
// tuples within a run) and coverage (runs spread over the whole block).
// The rng makes placement reproducible for a given seed.
func (s Strategy) Ranges(n int, rng *rand.Rand) []Range {
	if n <= 0 || s.Runs <= 0 || s.RunLen <= 0 {
		return nil
	}
	if s.Size() >= n {
		return []Range{{0, n}}
	}
	parts := s.Runs
	out := make([]Range, 0, parts)
	partLen := n / parts
	for p := 0; p < parts; p++ {
		lo := p * partLen
		hi := lo + partLen
		if p == parts-1 {
			hi = n
		}
		runLen := s.RunLen
		if runLen > hi-lo {
			runLen = hi - lo
		}
		start := lo
		if slack := hi - lo - runLen; slack > 0 {
			start += rng.Intn(slack + 1)
		}
		out = append(out, Range{start, start + runLen})
	}
	return out
}

// Values gathers the sampled values of a numeric block.
func Values[T any](src []T, s Strategy, rng *rand.Rand) []T {
	ranges := s.Ranges(len(src), rng)
	if len(ranges) == 1 && ranges[0].Start == 0 && ranges[0].End == len(src) {
		return src
	}
	out := make([]T, 0, s.Size())
	for _, r := range ranges {
		out = append(out, src[r.Start:r.End]...)
	}
	return out
}

// Strings gathers the sampled values of a string block.
func Strings(src coldata.Strings, s Strategy, rng *rand.Rand) coldata.Strings {
	n := src.Len()
	ranges := s.Ranges(n, rng)
	if len(ranges) == 1 && ranges[0].Start == 0 && ranges[0].End == n {
		return src
	}
	out := coldata.NewStringsBuilder(s.Size(), 0)
	for _, r := range ranges {
		for i := r.Start; i < r.End; i++ {
			out = out.AppendBytes(src.View(i))
		}
	}
	return out
}
