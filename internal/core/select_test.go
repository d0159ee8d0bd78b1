package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"btrblocks/coldata"
	"btrblocks/internal/roaring"
)

// Per-stream differential tests for the selection and aggregation
// kernels: every (data shape × forced scheme × predicate) cell compares
// the compressed-domain kernel against decode-then-filter on the same
// stream. The root-level oracle in the query package covers plans,
// NULLs, and pruning; this file pins the kernels themselves.

func intShapes(rng *rand.Rand) map[string][]int32 {
	shapes := map[string][]int32{
		"empty":    {},
		"constant": make([]int32, 900),
		"negative": {-5, -5, -5, -1, 0, 3, 3, 3, 900, -1000000},
	}
	for i := range shapes["constant"] {
		shapes["constant"][i] = 42
	}
	runs := make([]int32, 0, 1200)
	for len(runs) < 1200 {
		v := int32(rng.Intn(9) - 4)
		l := 1 + rng.Intn(40)
		for j := 0; j < l && len(runs) < 1200; j++ {
			runs = append(runs, v)
		}
	}
	shapes["runs"] = runs
	lowCard := make([]int32, 1500)
	for i := range lowCard {
		lowCard[i] = int32(rng.Intn(12)) * 1000
	}
	shapes["lowcard"] = lowCard
	skew := make([]int32, 1500)
	for i := range skew {
		if rng.Intn(10) < 9 {
			skew[i] = 777
		} else {
			skew[i] = int32(rng.Intn(100000))
		}
	}
	shapes["skew"] = skew
	sorted := make([]int32, 2000)
	v := int32(-500)
	for i := range sorted {
		v += int32(rng.Intn(5))
		sorted[i] = v
	}
	shapes["sorted"] = sorted
	wide := make([]int32, 800)
	for i := range wide {
		wide[i] = int32(rng.Uint32())
	}
	shapes["wide"] = wide
	return shapes
}

func intPreds(values []int32, rng *rand.Rand) map[string]*Pred[int32] {
	pick := func() int32 {
		if len(values) == 0 {
			return 7
		}
		return values[rng.Intn(len(values))]
	}
	lo, hi := pick(), pick()
	if lo > hi {
		lo, hi = hi, lo
	}
	in := []int32{pick(), pick(), pick(), -123456789, pick()}
	preds := map[string]*Pred[int32]{
		"eq-hit":      {Op: PredEq, Eq: pick()},
		"eq-miss":     {Op: PredEq, Eq: -987654321},
		"range":       {Op: PredRange, Lo: lo, Hi: hi},
		"range-all":   {Op: PredRange, Lo: math.MinInt32, Hi: math.MaxInt32},
		"range-empty": {Op: PredRange, Lo: 10, Hi: 9},
		"in":          {Op: PredIn, In: in},
		"in-empty":    {Op: PredIn},
	}
	for _, p := range preds {
		p.Normalize()
	}
	return preds
}

func refBitmap(n int, match func(i int) bool, base uint32) *roaring.Bitmap {
	out := roaring.New()
	for i := 0; i < n; i++ {
		if match(i) {
			out.Add(base + uint32(i))
		}
	}
	return out
}

func TestSelectIntDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := &Config{}
	for shape, values := range intShapes(rng) {
		encodings := map[string][]byte{"auto": Int.Compress(nil, values, cfg)}
		for _, code := range Int.Schemes() {
			if enc := Int.CompressAs(nil, values, code, cfg); enc != nil {
				encodings[fmt.Sprintf("forced-%d", code)] = enc
			}
		}
		for encName, enc := range encodings {
			for predName, p := range intPreds(values, rng) {
				name := shape + "/" + encName + "/" + predName
				const base = 1 << 16
				got := roaring.New()
				var st SelectStats
				used, err := Int.Select(enc, p, base, got, &st, cfg)
				if err != nil {
					t.Fatalf("%s: SelectInt: %v", name, err)
				}
				if used != len(enc) {
					t.Fatalf("%s: consumed %d of %d bytes", name, used, len(enc))
				}
				want := refBitmap(len(values), func(i int) bool { return p.Match(values[i]) }, base)
				if !got.Equals(want) {
					t.Fatalf("%s: selection mismatch: got %d want %d matches",
						name, got.Cardinality(), want.Cardinality())
				}
			}
		}
	}
}

func TestSelectIntFORSkipsBlocks(t *testing.T) {
	// FOR deltas are relative to one global base, so a packed block's
	// envelope is [base, base+2^w): blocks whose width-bound stays below
	// the predicate cannot match. On a sorted ramp that means a range
	// near the top skips every early (narrow-width) block unread.
	values := make([]int32, 4096)
	for i := range values {
		values[i] = int32(i * 3)
	}
	cfg := &Config{}
	enc := Int.CompressAs(nil, values, CodeFastBP, cfg)
	if enc == nil {
		t.Fatal("FastBP not applicable to sorted ramp")
	}
	p := &Pred[int32]{Op: PredRange, Lo: 12000, Hi: 12060}
	got := roaring.New()
	var st SelectStats
	if _, err := Int.Select(enc, p, 0, got, &st, cfg); err != nil {
		t.Fatal(err)
	}
	want := refBitmap(len(values), func(i int) bool { return p.Match(values[i]) }, 0)
	if !got.Equals(want) {
		t.Fatalf("selection mismatch: got %d want %d", got.Cardinality(), want.Cardinality())
	}
	if st.FORSkipped.Load() == 0 {
		t.Fatal("no packed blocks were min-max skipped")
	}
	if st.FORScanned.Load() >= st.FORSkipped.Load() {
		t.Fatalf("expected mostly skips: scanned %d skipped %d",
			st.FORScanned.Load(), st.FORSkipped.Load())
	}
}

func TestSelectInt64Differential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shapes := map[string][]int64{
		"empty":    {},
		"constant": {9e12, 9e12, 9e12, 9e12},
		"extremes": {math.MinInt64, math.MaxInt64, 0, -1, 1, math.MaxInt64, math.MinInt64},
	}
	runs := make([]int64, 0, 1200)
	for len(runs) < 1200 {
		v := int64(rng.Intn(7))*1e10 - 3e10
		l := 1 + rng.Intn(30)
		for j := 0; j < l && len(runs) < 1200; j++ {
			runs = append(runs, v)
		}
	}
	shapes["runs"] = runs
	sorted := make([]int64, 2000)
	v := int64(1700000000)
	for i := range sorted {
		v += int64(rng.Intn(90))
		sorted[i] = v
	}
	shapes["sorted"] = sorted
	wide := make([]int64, 700)
	for i := range wide {
		wide[i] = int64(rng.Uint64())
	}
	shapes["wide"] = wide

	for shape, values := range shapes {
		// Force each root scheme via the pool restriction; the encoder
		// falls back when inapplicable, which is fine — the reference
		// check below holds either way.
		cfgs := map[string]*Config{"auto": {}}
		for _, code := range Int.Schemes() {
			cfgs[fmt.Sprintf("restrict-%d", code)] = &Config{IntSchemes: []Code{code, CodeUncompressed}}
		}
		for cfgName, cfg := range cfgs {
			enc := Int64.Compress(nil, values, cfg)
			pick := func() int64 {
				if len(values) == 0 {
					return 5
				}
				return values[rng.Intn(len(values))]
			}
			lo, hi := pick(), pick()
			if lo > hi {
				lo, hi = hi, lo
			}
			preds := map[string]*Pred[int64]{
				"eq-hit":   {Op: PredEq, Eq: pick()},
				"eq-miss":  {Op: PredEq, Eq: -314159265358979},
				"range":    {Op: PredRange, Lo: lo, Hi: hi},
				"range-hi": {Op: PredRange, Lo: math.MaxInt64 - 3, Hi: math.MaxInt64},
				"in":       {Op: PredIn, In: []int64{pick(), pick(), 4}},
				"in-empty": {Op: PredIn},
			}
			for predName, p := range preds {
				p.Normalize()
				name := shape + "/" + cfgName + "/" + predName
				got := roaring.New()
				used, err := Int64.Select(enc, p, 0, got, nil, cfg)
				if err != nil {
					t.Fatalf("%s: SelectInt64: %v", name, err)
				}
				if used != len(enc) {
					t.Fatalf("%s: consumed %d of %d bytes", name, used, len(enc))
				}
				want := refBitmap(len(values), func(i int) bool { return p.Match(values[i]) }, 0)
				if !got.Equals(want) {
					t.Fatalf("%s: selection mismatch: got %d want %d",
						name, got.Cardinality(), want.Cardinality())
				}
			}
		}
	}
}

func TestSelectDoubleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := map[string][]float64{
		"empty":    {},
		"constant": {2.5, 2.5, 2.5, 2.5, 2.5},
		"special":  {0.0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, math.NaN()},
	}
	runs := make([]float64, 0, 1000)
	for len(runs) < 1000 {
		v := float64(rng.Intn(6)) * 0.25
		l := 1 + rng.Intn(25)
		for j := 0; j < l && len(runs) < 1000; j++ {
			runs = append(runs, v)
		}
	}
	shapes["runs"] = runs
	lowCard := make([]float64, 1200)
	for i := range lowCard {
		lowCard[i] = float64(rng.Intn(10)) * 1.1
	}
	shapes["lowcard"] = lowCard
	dec2 := make([]float64, 1200)
	for i := range dec2 {
		dec2[i] = float64(rng.Intn(100000)) / 100
	}
	shapes["decimal"] = dec2

	cfg := &Config{}
	for shape, values := range shapes {
		encodings := map[string][]byte{"auto": Double.Compress(nil, values, cfg)}
		for _, code := range Double.Schemes() {
			if enc := Double.CompressAs(nil, values, code, cfg); enc != nil {
				encodings[fmt.Sprintf("forced-%d", code)] = enc
			}
		}
		pick := func() float64 {
			if len(values) == 0 {
				return 1.25
			}
			return values[rng.Intn(len(values))]
		}
		lo, hi := pick(), pick()
		if lo > hi {
			lo, hi = hi, lo
		}
		preds := map[string]*DoublePred{
			"eq-hit":   {Op: PredEq, Eq: pick()},
			"eq-nan":   {Op: PredEq, Eq: math.NaN()},
			"eq-miss":  {Op: PredEq, Eq: -1e300},
			"range":    {Op: PredRange, Lo: lo, Hi: hi},
			"in":       {Op: PredIn, In: []float64{pick(), pick(), math.NaN()}},
			"in-empty": {Op: PredIn},
		}
		for encName, enc := range encodings {
			for predName, p := range preds {
				p.Normalize()
				name := shape + "/" + encName + "/" + predName
				got := roaring.New()
				used, err := Double.Select(enc, p, 0, got, nil, cfg)
				if err != nil {
					t.Fatalf("%s: SelectDouble: %v", name, err)
				}
				if used != len(enc) {
					t.Fatalf("%s: consumed %d of %d bytes", name, used, len(enc))
				}
				want := refBitmap(len(values), func(i int) bool { return p.Match(values[i]) }, 0)
				if !got.Equals(want) {
					t.Fatalf("%s: selection mismatch: got %d want %d",
						name, got.Cardinality(), want.Cardinality())
				}
			}
		}
	}
}

func TestSelectStringDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	words := []string{"", "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "omega", "zzz"}
	build := func(n int, card int) (coldata.Strings, []string) {
		s := coldata.NewStringsBuilder(n, n*6)
		vals := make([]string, n)
		for i := 0; i < n; i++ {
			w := words[rng.Intn(card)]
			s = s.Append(w)
			vals[i] = w
		}
		return s, vals
	}
	shapes := map[string]int{"lowcard": 4, "full": len(words)}
	cfg := &Config{}
	for shape, card := range shapes {
		col, vals := build(1100, card)
		encodings := map[string][]byte{"auto": CompressString(nil, col, cfg)}
		for _, code := range StringSchemes() {
			if enc := CompressStringAs(nil, col, code, cfg); enc != nil {
				encodings[fmt.Sprintf("forced-%d", code)] = enc
			}
		}
		preds := map[string]*StringPred{
			"eq-hit":   {Op: PredEq, Eq: []byte("beta")},
			"eq-empty": {Op: PredEq, Eq: []byte("")},
			"eq-miss":  {Op: PredEq, Eq: []byte("nope")},
			"range":    {Op: PredRange, Lo: []byte("b"), Hi: []byte("e")},
			"in":       {Op: PredIn, In: [][]byte{[]byte("gamma"), []byte("zzz"), []byte("x")}},
			"in-empty": {Op: PredIn},
		}
		for encName, enc := range encodings {
			for predName, p := range preds {
				p.Normalize()
				name := shape + "/" + encName + "/" + predName
				got := roaring.New()
				used, err := SelectString(enc, p, 0, got, nil, cfg)
				if err != nil {
					t.Fatalf("%s: SelectString: %v", name, err)
				}
				if used != len(enc) {
					t.Fatalf("%s: consumed %d of %d bytes", name, used, len(enc))
				}
				want := refBitmap(len(vals), func(i int) bool { return p.Match([]byte(vals[i])) }, 0)
				if !got.Equals(want) {
					t.Fatalf("%s: selection mismatch: got %d want %d",
						name, got.Cardinality(), want.Cardinality())
				}
			}
		}
	}
}

func TestAggregateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cfg := &Config{}

	for shape, values := range intShapes(rng) {
		var want Agg[int32]
		for _, v := range values {
			want.Fold(v)
		}
		encodings := map[string][]byte{"auto": Int.Compress(nil, values, cfg)}
		for _, code := range Int.Schemes() {
			if enc := Int.CompressAs(nil, values, code, cfg); enc != nil {
				encodings[fmt.Sprintf("forced-%d", code)] = enc
			}
		}
		for encName, enc := range encodings {
			var got Agg[int32]
			used, err := Int.Aggregate(enc, &got, nil, cfg)
			if err != nil {
				t.Fatalf("int/%s/%s: %v", shape, encName, err)
			}
			if used != len(enc) {
				t.Fatalf("int/%s/%s: consumed %d of %d", shape, encName, used, len(enc))
			}
			if got != want {
				t.Fatalf("int/%s/%s: got %+v want %+v", shape, encName, got, want)
			}
		}
	}

	i64 := []int64{1 << 40, -(1 << 40), 7, 7, 7, math.MaxInt64, math.MinInt64, 0}
	var want64 Agg[int64]
	for _, v := range i64 {
		want64.Fold(v)
	}
	for _, code := range Int.Schemes() {
		cfg64 := &Config{IntSchemes: []Code{code, CodeUncompressed}}
		enc := Int64.Compress(nil, i64, cfg64)
		var got Agg[int64]
		used, err := Int64.Aggregate(enc, &got, nil, cfg64)
		if err != nil {
			t.Fatalf("int64/restrict-%d: %v", code, err)
		}
		if used != len(enc) || got != want64 {
			t.Fatalf("int64/restrict-%d: got %+v (used %d) want %+v", code, got, used, want64)
		}
	}

	doubles := map[string][]float64{
		"plain":   {1.5, -2.25, 1.5, 1.5, 100.0, 0.125},
		"special": {math.NaN(), 1.0, math.Inf(-1), math.Inf(1), math.Copysign(0, -1)},
		"runs":    {0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 2.0, 2.0, 2.0},
		"empty":   {},
	}
	for shape, vals := range doubles {
		var wantD DoubleAgg
		for _, v := range vals {
			wantD.Fold(v)
		}
		encodings := map[string][]byte{"auto": Double.Compress(nil, vals, cfg)}
		for _, code := range Double.Schemes() {
			if enc := Double.CompressAs(nil, vals, code, cfg); enc != nil {
				encodings[fmt.Sprintf("forced-%d", code)] = enc
			}
		}
		for encName, enc := range encodings {
			var got DoubleAgg
			used, err := Double.Aggregate(enc, &got, nil, cfg)
			if err != nil {
				t.Fatalf("double/%s/%s: %v", shape, encName, err)
			}
			if used != len(enc) {
				t.Fatalf("double/%s/%s: consumed %d of %d", shape, encName, used, len(enc))
			}
			// Bit-level comparison so NaN sums and -0.0 vs 0.0 are pinned.
			if got.Count != wantD.Count ||
				math.Float64bits(got.Sum) != math.Float64bits(wantD.Sum) ||
				math.Float64bits(got.Min) != math.Float64bits(wantD.Min) ||
				math.Float64bits(got.Max) != math.Float64bits(wantD.Max) {
				t.Fatalf("double/%s/%s: got %+v want %+v", shape, encName, got, wantD)
			}
		}
	}
}
