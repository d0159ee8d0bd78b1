package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"btrblocks/coldata"
)

// want is the oracle's view of a stream, in the profile's vocabulary.
type want struct {
	n, distinct, runs, topCount int
	avgRun, uniqueFrac          float64
}

func checkSummary(t *testing.T, name string, s *Summary, w want) {
	t.Helper()
	if s.N != w.n || s.Distinct != w.distinct || s.RunCount != w.runs || s.TopCount != w.topCount {
		t.Fatalf("%s: profile N=%d Distinct=%d RunCount=%d TopCount=%d, oracle %+v",
			name, s.N, s.Distinct, s.RunCount, s.TopCount, w)
	}
	if w.n > 0 && (s.AvgRunLen() != w.avgRun || s.UniqueFrac() != w.uniqueFrac) {
		t.Fatalf("%s: AvgRunLen=%v UniqueFrac=%v, oracle %v %v", name, s.AvgRunLen(), s.UniqueFrac(), w.avgRun, w.uniqueFrac)
	}
}

// checkIDs verifies the id assignment itself: dense ids in first-occurrence
// order, per-id counts, and Vals mapping back to the rows.
func checkIDs[K Key](t *testing.T, name string, p *Profile[K], src []K) {
	t.Helper()
	if len(p.IDs) != len(src) || len(p.Vals) != len(p.Counts) {
		t.Fatalf("%s: %d ids for %d rows, %d vals, %d counts", name, len(p.IDs), len(src), len(p.Vals), len(p.Counts))
	}
	counts := make([]int32, len(p.Vals))
	next := int32(0)
	for i, id := range p.IDs {
		if id > next || id < 0 {
			t.Fatalf("%s: row %d has id %d, next unused is %d", name, i, id, next)
		}
		if id == next {
			next++
		}
		if p.Vals[id] != src[i] {
			t.Fatalf("%s: row %d: id %d names %v, row holds %v", name, i, id, p.Vals[id], src[i])
		}
		counts[id]++
	}
	for id, c := range counts {
		if c != p.Counts[id] {
			t.Fatalf("%s: id %d counted %d, rows say %d", name, id, p.Counts[id], c)
		}
	}
	seen := map[K]bool{}
	for _, v := range p.Vals {
		if seen[v] {
			t.Fatalf("%s: value %v has two ids", name, v)
		}
		seen[v] = true
	}
}

func checkInt(t *testing.T, name string, src []int32) {
	t.Helper()
	var p Profile[int32]
	var tbl Table
	o := ComputeInt(src)
	// build twice into the same profile and table: reuse must not leak state
	p.Build([]int32{1, 2, 3, 1 << 30, 2}, &tbl)
	p.Build(src, &tbl)
	checkSummary(t, name, &p.Summary, want{o.N, o.Distinct, o.RunCount, o.TopCount, o.AvgRunLen, o.UniqueFrac})
	checkIDs(t, name, &p, src)
	if len(src) > 0 && (p.Min != o.Min || p.Max != o.Max || p.Vals[p.TopID] != o.TopValue) {
		t.Fatalf("%s: min/max/top %d %d %d, oracle %d %d %d", name, p.Min, p.Max, p.Vals[p.TopID], o.Min, o.Max, o.TopValue)
	}
}

func checkInt64(t *testing.T, name string, src []int64) {
	t.Helper()
	var p Profile[int64]
	var tbl Table
	o := ComputeInt64(src)
	p.Build(src, &tbl)
	checkSummary(t, name, &p.Summary, want{o.N, o.Distinct, o.RunCount, o.TopCount, o.AvgRunLen, o.UniqueFrac})
	checkIDs(t, name, &p, src)
	if len(src) > 0 && (p.Min != o.Min || p.Max != o.Max || p.Vals[p.TopID] != o.TopValue) {
		t.Fatalf("%s: min/max/top %d %d %d, oracle %d %d %d", name, p.Min, p.Max, p.Vals[p.TopID], o.Min, o.Max, o.TopValue)
	}
}

func checkDouble(t *testing.T, name string, src []float64) {
	t.Helper()
	bits := make([]uint64, len(src))
	for i, v := range src {
		bits[i] = math.Float64bits(v)
	}
	var p Profile[uint64]
	var tbl Table
	o := ComputeDouble(src)
	p.Build(bits, &tbl)
	checkSummary(t, name, &p.Summary, want{o.N, o.Distinct, o.RunCount, o.TopCount, o.AvgRunLen, o.UniqueFrac})
	checkIDs(t, name, &p, bits)
	if len(src) > 0 && p.Vals[p.TopID] != math.Float64bits(o.TopValue) {
		t.Fatalf("%s: top bits %#x, oracle %#x", name, p.Vals[p.TopID], math.Float64bits(o.TopValue))
	}
}

func checkString(t *testing.T, name string, vals []string) {
	t.Helper()
	src := coldata.MakeStrings(vals)
	var p StringProfile
	var tbl Table
	o := ComputeString(src)
	p.Build(coldata.MakeStrings([]string{"x", "", "x", "yy"}), &tbl)
	p.Build(src, &tbl)
	checkSummary(t, name, &p.Summary, want{o.N, o.Distinct, o.RunCount, o.TopCount, o.AvgRunLen, o.UniqueFrac})
	if p.TotalLen != o.TotalLen || p.MaxLen != o.MaxLen {
		t.Fatalf("%s: TotalLen/MaxLen %d %d, oracle %d %d", name, p.TotalLen, p.MaxLen, o.TotalLen, o.MaxLen)
	}
	// the hash-free pass: AllEqual is Distinct == 1, Len its one length
	var sh StringShape
	sh.Scan(src)
	if sh.N != o.N || sh.TotalLen != o.TotalLen || sh.AllEqual != (o.Distinct == 1) || sh.AllEqual && sh.Len != o.MaxLen {
		t.Fatalf("%s: shape %+v, oracle N=%d TotalLen=%d Distinct=%d MaxLen=%d", name, sh, o.N, o.TotalLen, o.Distinct, o.MaxLen)
	}
	value := func(id int32) string { return string(src.Data[p.Vals[id].Off:p.Vals[id].End]) }
	if len(vals) > 0 && value(p.TopID) != o.TopValue {
		t.Fatalf("%s: top %q, oracle %q", name, value(p.TopID), o.TopValue)
	}
	next := int32(0)
	counts := make([]int32, len(p.Vals))
	seen := map[string]bool{}
	for i, id := range p.IDs {
		if id == next {
			if seen[vals[i]] {
				t.Fatalf("%s: value %q has two ids", name, vals[i])
			}
			seen[vals[i]] = true
			next++
		}
		if id < 0 || id >= next || value(id) != vals[i] {
			t.Fatalf("%s: row %d has id %d", name, i, id)
		}
		counts[id]++
	}
	for id, c := range counts {
		if c != p.Vals[id].Count {
			t.Fatalf("%s: id %d counted %d, rows say %d", name, id, p.Vals[id].Count, c)
		}
	}
}

func TestProfileExamples(t *testing.T) {
	var tbl Table
	var p Profile[int32]
	p.Build([]int32{5, 5, 5, -2, -2, 9}, &tbl)
	if p.N != 6 || p.Min != -2 || p.Max != 9 || p.Distinct != 3 || p.RunCount != 3 ||
		p.AvgRunLen() != 2 || p.Vals[p.TopID] != 5 || p.TopCount != 3 || p.UniqueFrac() != 0.5 {
		t.Fatalf("int profile wrong: %+v", p)
	}
	p.Build(nil, &tbl)
	if p.N != 0 || p.Distinct != 0 || !p.Built {
		t.Fatalf("empty profile wrong: %+v", p)
	}

	var sp StringProfile
	sp.Build(coldata.MakeStrings([]string{"aa", "aa", "b", "b", "b", "ccc"}), &tbl)
	if sp.N != 6 || sp.Distinct != 3 || sp.TotalLen != 10 || sp.MaxLen != 3 ||
		sp.Vals[sp.TopID].Off != 4 || sp.TopCount != 3 || sp.RunCount != 3 || sp.AvgRunLen() != 2 {
		t.Fatalf("string profile wrong: %+v", sp)
	}
	sp.Build(coldata.Strings{}, &tbl)
	if sp.N != 0 || sp.Distinct != 0 {
		t.Fatalf("empty string profile wrong: %+v", sp)
	}
}

// sizes are the stream lengths the suite runs at: the degenerate ones, a
// sample (640) and a block (64000).
var sizes = []int{0, 1, 2, 640, 64000}

func TestProfileMatchesOracleInts(t *testing.T) {
	for _, n := range sizes {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			// cardinalities around the N/2+2 cap, runs, and spans on both
			// sides of the dense/hashed rule
			for _, card := range []int{1, 2, 7, n/2 + 1, n/2 + 2, n/2 + 3, n, 4 * n, 1 << 30} {
				card = max(card, 1)
				src := make([]int32, n)
				src64 := make([]int64, n)
				for i := range src {
					if i > 0 && rng.Intn(3) == 0 {
						src[i], src64[i] = src[i-1], src64[i-1]
						continue
					}
					v := rng.Intn(card)
					src[i] = int32(v) - int32(card/2)
					src64[i] = int64(v)*1000003 - 1<<40
				}
				name := fmt.Sprintf("n=%d seed=%d card=%d", n, seed, card)
				checkInt(t, name, src)
				checkInt64(t, name, src64)
			}
		}
	}
}

// TestProfileOverflowCap pins the capped counting the filters rely on:
// values first seen after N/2+2 distinct ones are not counted, even when
// one of them is the most frequent.
func TestProfileOverflowCap(t *testing.T) {
	src := []int32{9, 8, 7, 6, 5, 4, 3, 100, 100, 100}
	checkInt(t, "late top", src)
	var p Profile[int32]
	p.Build(src, new(Table))
	if p.Distinct != 7 || p.Vals[p.TopID] != 3 || p.TopCount != 1 || len(p.Vals) != 8 {
		t.Fatalf("capped profile: Distinct=%d top=%d×%d, %d ids", p.Distinct, p.Vals[p.TopID], p.TopCount, len(p.Vals))
	}
	checkString(t, "late top", []string{"i", "h", "g", "f", "e", "d", "c", "zz", "zz", "zz"})
}

func TestProfileTieBreaks(t *testing.T) {
	checkInt(t, "ties", []int32{3, -1, 3, -1, 7, 7, 0})
	checkInt64(t, "ties", []int64{math.MaxInt64, math.MinInt64, math.MaxInt64, math.MinInt64})
	negZero := math.Copysign(0, -1)
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	checkDouble(t, "zeros", []float64{0, negZero, 0, negZero})
	checkDouble(t, "nan payloads", []float64{nan2, nan1, nan2, nan1, 1.5, nan1, nan1})
	checkDouble(t, "nan run", []float64{math.NaN(), math.NaN(), math.NaN(), 1.5})
	checkDouble(t, "negatives first", []float64{-1, 1, -1, 1}) // smallest bit pattern is +1
	checkString(t, "ties", []string{"b", "a", "b", "a", "", ""})
	checkString(t, "prefixes", []string{"ab", "a", "abc", "ab", "a", "abc"})
	checkString(t, "empties", []string{"", "", "", "x"})
}

func TestProfileExtremes(t *testing.T) {
	// max−min overflows the key type; the span must still come out right
	checkInt(t, "int32 extremes", []int32{math.MaxInt32, math.MinInt32, 0, math.MaxInt32, -1})
	checkInt64(t, "int64 extremes", []int64{math.MaxInt64, math.MinInt64, 0, math.MaxInt64, -1})
	checkInt(t, "min only", []int32{math.MinInt32, math.MinInt32 + 1, math.MinInt32})
	checkInt64(t, "max only", []int64{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64})
	checkDouble(t, "bit extremes", []float64{math.Float64frombits(0), math.Float64frombits(math.MaxUint64), math.Inf(1), math.Inf(-1)})
}

// TestProfileDenseBoundary builds streams whose span sits exactly on, one
// below and one above the dense/hashed rule, for every key type.
func TestProfileDenseBoundary(t *testing.T) {
	for _, n := range []int{2, 5, 640} {
		for _, d := range []int{-1, 0, 1} {
			span := DenseSpan*n + d // dense iff span < DenseSpan*n
			rng := rand.New(rand.NewSource(int64(n*10 + d)))
			src := make([]int32, n)
			src64 := make([]int64, n)
			dbl := make([]float64, n)
			for i := range src {
				v := rng.Intn(span + 1)
				if i == 0 {
					v = 0
				} else if i == 1 {
					v = span
				}
				src[i] = math.MinInt32 + int32(v)
				src64[i] = math.MaxInt64 - int64(v)
				dbl[i] = math.Float64frombits(uint64(0x4000000000000000) + uint64(v))
			}
			name := fmt.Sprintf("n=%d span=%d", n, span)
			checkInt(t, name, src)
			checkInt64(t, name, src64)
			checkDouble(t, name, dbl)
		}
	}
}

func TestProfileMatchesOracleDoubles(t *testing.T) {
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n) + 3))
		for _, card := range []int{1, 3, n/2 + 2, n/2 + 3, 1 << 20} {
			src := make([]float64, n)
			for i := range src {
				switch {
				case i > 0 && rng.Intn(4) == 0:
					src[i] = src[i-1]
				case rng.Intn(50) == 0:
					src[i] = math.Float64frombits(0x7ff8000000000000 | uint64(rng.Intn(3)))
				case rng.Intn(50) == 0:
					src[i] = math.Copysign(0, -1)
				default:
					src[i] = float64(rng.Intn(max(card, 1))) / 100
				}
			}
			checkDouble(t, fmt.Sprintf("n=%d card=%d", n, card), src)
		}
	}
}

func TestProfileMatchesOracleStrings(t *testing.T) {
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n) + 5))
		for _, card := range []int{1, 2, 40, n/2 + 1, n/2 + 2, n/2 + 3, 4 * n} {
			vals := make([]string, n)
			for i := range vals {
				switch {
				case i > 0 && rng.Intn(3) == 0:
					vals[i] = vals[i-1]
				case rng.Intn(40) == 0:
					vals[i] = ""
				default:
					// lengths on both sides of the hash's 4- and 8-byte cases
					v := rng.Intn(max(card, 1))
					vals[i] = fmt.Sprintf("%d/%s", v, "abcdefghijklmnopqrstuvwxyz"[:v%19])
				}
			}
			checkString(t, fmt.Sprintf("n=%d card=%d", n, card), vals)
		}
	}
}

var benchProfile Profile[int32]

// BenchmarkProfile is the statistics pass of one 64000-value block, per
// table kind and for strings.
func BenchmarkProfile(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const n = 64000
	dense, hashedLow, hashedHigh := make([]int32, n), make([]int32, n), make([]int32, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		dense[i] = int32(rng.Intn(1 << 12))
		hashedLow[i] = int32(rng.Intn(64)) * 1000003
		hashedHigh[i] = rng.Int31()
		strs[i] = fmt.Sprintf("http://host.internal/users/%d", rng.Intn(4000))
	}
	var tbl Table
	for _, c := range []struct {
		name string
		src  []int32
	}{{"int/dense", dense}, {"int/hashed-few", hashedLow}, {"int/hashed-unique", hashedHigh}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(4 * n)
			for i := 0; i < b.N; i++ {
				benchProfile.Build(c.src, &tbl)
			}
		})
	}
	col := coldata.MakeStrings(strs)
	b.Run("string/4000", func(b *testing.B) {
		var p StringProfile
		b.SetBytes(int64(col.TotalBytes()))
		for i := 0; i < b.N; i++ {
			p.Build(col, &tbl)
		}
	})
}
