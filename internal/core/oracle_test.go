package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"btrblocks/coldata"
	"btrblocks/internal/stats"
)

// The map-based dictionary builders and the Frequency top-value rule the
// block profile replaced, kept as the oracle: the profile's sorted
// dictionaries, codes, top values and exceptions must equal theirs.

func refDict[K stats.Key](src []K) (dict []K, codes []int32) {
	seen := make(map[K]int32, 1024)
	for _, v := range src {
		if _, ok := seen[v]; !ok {
			seen[v] = 0
			dict = append(dict, v)
		}
	}
	slices.Sort(dict)
	for i, v := range dict {
		seen[v] = int32(i)
	}
	codes = make([]int32, len(src))
	for i, v := range src {
		codes[i] = seen[v]
	}
	return dict, codes
}

func refStringDict(src coldata.Strings) (coldata.Strings, []int32) {
	seen := make(map[string]int32, 1024)
	var distinct []string
	n := src.Len()
	for i := 0; i < n; i++ {
		v := src.View(i)
		if _, ok := seen[string(v)]; !ok {
			val := string(v)
			seen[val] = 0
			distinct = append(distinct, val)
		}
	}
	slices.Sort(distinct)
	for i, v := range distinct {
		seen[v] = int32(i)
	}
	codes := make([]int32, n)
	for i := 0; i < n; i++ {
		codes[i] = seen[string(src.View(i))]
	}
	return coldata.MakeStrings(distinct), codes
}

// refTop is the old statistics pass reduced to what Frequency used: the
// most frequent of the first N/2+2 distinct values, ties to the smallest.
func refTop[K stats.Key](src []K) (top K) {
	limit := len(src)/2 + 2
	counts := make(map[K]int, min(limit, 4096))
	for _, v := range src {
		if c, ok := counts[v]; ok {
			counts[v] = c + 1
		} else if len(counts) < limit {
			counts[v] = 1
		}
	}
	topCount := 0
	for v, c := range counts {
		if c > topCount || (c == topCount && v < top) {
			top, topCount = v, c
		}
	}
	return top
}

// checkEncoderInputs compares what the Dictionary and Frequency encoders
// now derive from a profile with what they used to compute by hashing.
func checkEncoderInputs[K stats.Key](t *testing.T, name string, src []K) {
	t.Helper()
	scr := new(Scratch)
	var p stats.Profile[K]
	p.Build(src, &scr.table)
	dict, codes := sortedDict(&p)
	wantDict, wantCodes := refDict(src)
	if !slices.Equal(dict, wantDict) || !slices.Equal(codes, wantCodes) {
		t.Fatalf("%s: dictionary or codes differ from the map-based builder", name)
	}
	if len(src) == 0 {
		return
	}
	top := refTop(src)
	if p.Vals[p.TopID] != top {
		t.Fatalf("%s: top value %v, oracle %v", name, p.Vals[p.TopID], top)
	}
	topRow, bm, exceptions := splitTop(&p.Summary, p.IDs, src)
	if src[topRow] != top {
		t.Fatalf("%s: row %d reported as holding the top value holds %v", name, topRow, src[topRow])
	}
	var wantExc []K
	for i, v := range src {
		if (v == top) != bm.Contains(uint32(i)) {
			t.Fatalf("%s: row %d: bitmap disagrees with v == top", name, i)
		}
		if v != top {
			wantExc = append(wantExc, v)
		}
	}
	if !slices.Equal(exceptions, wantExc) {
		t.Fatalf("%s: exceptions differ", name)
	}
}

func TestEncoderInputsMatchOracle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 9, 640, 20000} {
		for _, card := range []int{1, 2, 50, n/2 + 1, n/2 + 3, 4 * n, 1 << 30} {
			rng := rand.New(rand.NewSource(int64(n*31 + card)))
			i32 := make([]int32, n)
			i64 := make([]int64, n)
			f64 := make([]uint64, n)
			strs := make([]string, n)
			for i := 0; i < n; i++ {
				v := rng.Intn(max(card, 1))
				if i > 0 && rng.Intn(4) == 0 {
					v = int(i32[i-1]) + card/2
				}
				i32[i] = int32(v - card/2)
				i64[i] = int64(v)*7919 - 1<<45
				f64[i] = math.Float64bits(float64(v-card/2) / 4)
				if v%97 == 0 {
					f64[i] = math.Float64bits(math.Copysign(0, -1))
				}
				strs[i] = fmt.Sprintf("%x-%s", v, "padding-padding"[:v%13])
			}
			name := fmt.Sprintf("n=%d card=%d", n, card)
			checkEncoderInputs(t, name, i32)
			checkEncoderInputs(t, name, i64)
			checkEncoderInputs(t, name, f64)

			col := coldata.MakeStrings(strs)
			scr := new(Scratch)
			var sp stats.StringProfile
			sp.Build(col, &scr.table)
			pool, lengths, codes := sortedStringDict(col, &sp)
			wantDict, wantCodes := refStringDict(col)
			if string(pool) != string(wantDict.Data) || !slices.Equal(codes, wantCodes) || len(lengths) != wantDict.Len() {
				t.Fatalf("%s: string dictionary differs from the map-based builder", name)
			}
			for i, l := range lengths {
				if int(l) != wantDict.LenAt(i) {
					t.Fatalf("%s: dictionary entry %d has length %d, want %d", name, i, l, wantDict.LenAt(i))
				}
			}
		}
	}
	// a top value first seen after the counting cap does not become the
	// Frequency value (the old statistics never counted it either)
	checkEncoderInputs(t, "late top", []int32{9, 8, 7, 6, 5, 4, 3, 100, 100, 100})
}
