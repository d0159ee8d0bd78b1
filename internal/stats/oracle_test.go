package stats

// The map-based statistics the profile replaced, kept verbatim as the
// oracle: ComputeInt/Int64/Double/String push every value through a Go
// map, cap distinct counting at N/2+2, and break top-value ties towards
// the smallest value. The profile must report exactly the same numbers.

import (
	"bytes"
	"math"

	"btrblocks/coldata"
)

// Int holds statistics for a block of int32 values.
type Int struct {
	N          int
	Min, Max   int32
	Distinct   int
	RunCount   int
	AvgRunLen  float64
	TopValue   int32
	TopCount   int
	UniqueFrac float64
}

// ComputeInt scans src once (plus a hash map for distinct/top counting).
// Distinct counting is capped just past half the block: every scheme
// filter only needs to know whether more than half the values are unique,
// so the map never has to grow further — bounding both memory and the
// dominant cost of the statistics pass on high-cardinality blocks.
func ComputeInt(src []int32) Int {
	st := Int{N: len(src)}
	if len(src) == 0 {
		return st
	}
	st.Min, st.Max = src[0], src[0]
	cap := len(src)/2 + 2
	counts := make(map[int32]int, min(cap, 4096))
	overflow := false
	runs := 1
	for i, v := range src {
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		if c, ok := counts[v]; ok {
			counts[v] = c + 1
		} else if len(counts) < cap {
			counts[v] = 1
		} else {
			overflow = true
		}
		if i > 0 && v != src[i-1] {
			runs++
		}
	}
	st.RunCount = runs
	st.AvgRunLen = float64(len(src)) / float64(runs)
	st.Distinct = len(counts)
	if overflow {
		st.Distinct = cap
	}
	st.UniqueFrac = float64(st.Distinct) / float64(len(src))
	for v, c := range counts {
		if c > st.TopCount || (c == st.TopCount && v < st.TopValue) {
			st.TopValue, st.TopCount = v, c
		}
	}
	return st
}

// Double holds statistics for a block of float64 values. Distinct counting
// uses the raw bit pattern, so 0.0 and -0.0 (and distinct NaN payloads)
// count separately — matching the bit-exact semantics of the codecs.
type Double struct {
	N          int
	Min, Max   float64
	Distinct   int
	RunCount   int
	AvgRunLen  float64
	TopValue   float64
	TopCount   int
	UniqueFrac float64
}

// ComputeDouble scans src once.
func ComputeDouble(src []float64) Double {
	st := Double{N: len(src)}
	if len(src) == 0 {
		return st
	}
	st.Min, st.Max = src[0], src[0]
	// Keyed by bit pattern so NaN (which is != itself) does not create a
	// fresh map entry per occurrence, and -0.0 counts separately from 0.0.
	// Distinct counting is capped as in ComputeInt.
	cap := len(src)/2 + 2
	counts := make(map[uint64]int, min(cap, 4096))
	overflow := false
	runs := 1
	for i, v := range src {
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		b := math.Float64bits(v)
		if c, ok := counts[b]; ok {
			counts[b] = c + 1
		} else if len(counts) < cap {
			counts[b] = 1
		} else {
			overflow = true
		}
		if i > 0 && b != math.Float64bits(src[i-1]) {
			runs++
		}
	}
	st.RunCount = runs
	st.AvgRunLen = float64(len(src)) / float64(runs)
	st.Distinct = len(counts)
	if overflow {
		st.Distinct = cap
	}
	st.UniqueFrac = float64(st.Distinct) / float64(len(src))
	var topBits uint64
	first := true
	for b, c := range counts {
		if first || c > st.TopCount || (c == st.TopCount && b < topBits) {
			topBits, st.TopCount = b, c
			first = false
		}
	}
	st.TopValue = math.Float64frombits(topBits)
	return st
}

// String holds statistics for a block of string values.
type String struct {
	N          int
	Distinct   int
	RunCount   int
	AvgRunLen  float64
	TotalLen   int
	MaxLen     int
	TopValue   string
	TopCount   int
	UniqueFrac float64
}

// ComputeString scans the column once.
func ComputeString(src coldata.Strings) String {
	st := String{N: src.Len(), TotalLen: len(src.Data)}
	if st.N == 0 {
		return st
	}
	cap := st.N/2 + 2
	counts := make(map[string]int, min(cap, 4096))
	overflow := false
	runs := 1
	var prev []byte
	for i := 0; i < st.N; i++ {
		// View + map[string(v)] lookups avoid a per-row string allocation;
		// only genuinely new distinct values are materialized as keys.
		v := src.View(i)
		if l := len(v); l > st.MaxLen {
			st.MaxLen = l
		}
		if c, ok := counts[string(v)]; ok {
			counts[string(v)] = c + 1
		} else if len(counts) < cap {
			counts[string(v)] = 1
		} else {
			overflow = true
		}
		if i > 0 && !bytes.Equal(v, prev) {
			runs++
		}
		prev = v
	}
	st.RunCount = runs
	st.AvgRunLen = float64(st.N) / float64(runs)
	st.Distinct = len(counts)
	if overflow {
		st.Distinct = cap
	}
	st.UniqueFrac = float64(st.Distinct) / float64(st.N)
	for v, c := range counts {
		if c > st.TopCount || (c == st.TopCount && v < st.TopValue) {
			st.TopValue, st.TopCount = v, c
		}
	}
	return st
}

// Int64 holds statistics for a block of int64 values.
type Int64 struct {
	N          int
	Min, Max   int64
	Distinct   int
	RunCount   int
	AvgRunLen  float64
	TopValue   int64
	TopCount   int
	UniqueFrac float64
}

// ComputeInt64 scans src once, with the same capped distinct counting as
// ComputeInt.
func ComputeInt64(src []int64) Int64 {
	st := Int64{N: len(src)}
	if len(src) == 0 {
		return st
	}
	st.Min, st.Max = src[0], src[0]
	cap := len(src)/2 + 2
	counts := make(map[int64]int, min(cap, 4096))
	overflow := false
	runs := 1
	for i, v := range src {
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		if c, ok := counts[v]; ok {
			counts[v] = c + 1
		} else if len(counts) < cap {
			counts[v] = 1
		} else {
			overflow = true
		}
		if i > 0 && v != src[i-1] {
			runs++
		}
	}
	st.RunCount = runs
	st.AvgRunLen = float64(len(src)) / float64(runs)
	st.Distinct = len(counts)
	if overflow {
		st.Distinct = cap
	}
	st.UniqueFrac = float64(st.Distinct) / float64(len(src))
	for v, c := range counts {
		if c > st.TopCount || (c == st.TopCount && v < st.TopValue) {
			st.TopValue, st.TopCount = v, c
		}
	}
	return st
}
