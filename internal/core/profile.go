package core

import (
	"slices"

	"btrblocks/coldata"
	"btrblocks/internal/roaring"
	"btrblocks/internal/stats"
)

func profiledStrings(p *stats.StringProfile, src coldata.Strings, cfg *Config) *stats.StringProfile {
	if !p.Built {
		p.Build(src, &cfg.Scratch.table)
	}
	return p
}

// viable applies the statistics filters of §3 (step 2) to a scheme of any
// numeric pool: e.g. RLE is excluded when the average run length is < 2,
// Frequency when more than half the values are unique, Pseudodecimal
// below 10% unique values (where a dictionary compresses almost as well
// and decompresses much faster).
func viable(code Code, st *stats.Summary) bool {
	switch code {
	case CodeOneValue:
		return st.Distinct == 1
	case CodeRLE:
		return st.AvgRunLen() >= 2
	case CodeDict:
		return st.Distinct > 1 && st.Distinct < st.N
	case CodeFrequency:
		return st.UniqueFrac() <= 0.5 && st.TopCount*2 >= st.N
	case CodeFastBP, CodeFastPFOR:
		return true
	case CodePDE:
		return st.UniqueFrac() >= 0.1
	default:
		return false
	}
}

// sortedDict turns a profile into a dictionary: the distinct values in
// ascending order (which keeps the dictionary itself compressible with
// FOR) and, per row, the rank of its value.
func sortedDict[K stats.Key](p *stats.Profile[K]) (dict []K, codes []int32) {
	dict = slices.Clone(p.Vals)
	slices.Sort(dict)
	rank := make([]int32, len(dict))
	for id, v := range p.Vals {
		i, _ := slices.BinarySearch(dict, v)
		rank[id] = int32(i)
	}
	codes = make([]int32, len(p.IDs))
	for i, id := range p.IDs {
		codes[i] = rank[id]
	}
	return dict, codes
}

// splitTop separates a stream for Frequency encoding: a row holding the
// profile's top value, a bitmap of all such rows, and the other rows'
// values.
func splitTop[V any](st *stats.Summary, ids []int32, src []V) (topRow int, bm *roaring.Bitmap, exceptions []V) {
	bm = roaring.New()
	exceptions = make([]V, 0, len(src)-st.TopCount)
	for i, id := range ids {
		if id == st.TopID {
			bm.Add(uint32(i))
			topRow = i
		} else {
			exceptions = append(exceptions, src[i])
		}
	}
	bm.RunOptimize()
	return topRow, bm, exceptions
}
