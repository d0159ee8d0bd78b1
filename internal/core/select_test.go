package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"slices"
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
	// Edge rows: a FastBP block of width 32 from ref MinInt32; blocks of
	// width 6 or less, whose In sets become one mask word; final blocks
	// of 1 and of 65 values.
	shapes["w32-minint32"] = []int32{math.MinInt32, 5, -1, math.MaxInt32, 0, math.MinInt32 + 1, math.MaxInt32 - 1}
	narrow, tail1, tail65 := make([]int32, 700), make([]int32, 129), make([]int32, 193)
	for i := range narrow {
		narrow[i] = 1000 + int32(rng.Intn(64))
	}
	for i := range tail1 {
		tail1[i] = -40 + int32(rng.Intn(50))
	}
	for i := range tail65 {
		tail65[i] = 70000 + int32(rng.Intn(1<<17))
	}
	shapes["narrow"], shapes["tail-1"], shapes["tail-65"] = narrow, tail1, tail65
	return shapes
}

// edgePreds are the named boundary rows beside the random predicates:
// In sets on either side of the cut-offs of the mask word (span 63 and
// 64) and of the bitset (span 65,535 and 65,536); In members and Eq
// below the reference (the smallest value) and negative; Eq just above
// the values' envelope [ref, ref+2^w-1]; ranges straddling each edge of
// the envelope; and In members inside and past a block's 64-value mask
// window. Values saturate at the bounds of T.
func edgePreds[T int32 | int64](values []T) map[string]*Pred[T] {
	mn, mx := T(0), T(0)
	if len(values) > 0 {
		mn, mx = slices.Min(values), slices.Max(values)
	}
	lim := int64(math.MaxInt32)
	if _, wide := any(values).([]int64); wide {
		lim = math.MaxInt64
	}
	at := func(v T, d int64) T { // v+d, saturated
		if d > 0 && int64(v) > lim-d {
			return T(lim)
		}
		if d < 0 && int64(v) < -lim-1-d {
			return T(-lim - 1)
		}
		return T(int64(v) + d)
	}
	top := mx // ref+2^w-1 of the whole column, w < 63
	if w := bits.Len64(udiff(mx, mn)); w < 63 {
		top = at(mn, 1<<w-1)
	}
	in := func(vs ...T) *Pred[T] { return &Pred[T]{Op: PredIn, In: vs} }
	preds := map[string]*Pred[T]{
		"in-span63":       in(at(mn, 1), at(mn, 30), at(mn, 64)),
		"in-span64":       in(mn, at(mn, 33), at(mn, 64)),
		"in-span65535":    in(mn, at(mn, 7), at(mn, 65535)),
		"in-span65536":    in(mn, at(mn, 7), at(mn, 65536)),
		"in-below-ref":    in(at(mn, -5), at(mn, -1), mn, at(mn, 2)),
		"in-negative":     in(-5, -1, at(mn, 1), at(mx, 0)),
		"eq-below-ref":    {Op: PredEq, Eq: at(mn, -1)},
		"eq-above-top":    {Op: PredEq, Eq: at(top, 1)},
		"range-lo-edge":   {Op: PredRange, Lo: at(mn, -10), Hi: at(mn, 3)},
		"range-hi-edge":   {Op: PredRange, Lo: at(mx, -3), Hi: at(mx, 10)},
		"range-top-edge":  {Op: PredRange, Lo: at(top, -5), Hi: at(top, 5)},
		"range-to-max":    {Op: PredRange, Lo: at(mn, 1), Hi: T(lim)},
		"range-from-min":  {Op: PredRange, Lo: T(-lim - 1), Hi: at(mx, -1)},
		"range-envelope":  {Op: PredRange, Lo: mn, Hi: top},
		"in-mask-members": in(at(mn, 1), at(mn, 3), at(mn, 63), at(mn, 64), at(mn, 200)),
	}
	for _, p := range preds {
		p.Normalize()
	}
	return preds
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
	maps.Copy(preds, edgePreds(values))
	return preds
}

// refBits is the selection a kernel must write for n values: bit i set
// where match(i).
func refBits(n int, match func(i int) bool) []uint64 {
	out := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if match(i) {
			out[i/64] |= 1 << (i % 64)
		}
	}
	return out
}

// checkKernel checks one stream's Select and Count, under both
// ScalarDecode settings, against want, the refBits + Match oracle.
func checkKernel(t *testing.T, name string, enc []byte, want []uint64,
	sel func([]uint64, *Config) (int, error), count func(*Config) (int, int, error)) {
	t.Helper()
	for _, scalar := range []bool{false, true} {
		cfg := &Config{ScalarDecode: scalar}
		got := make([]uint64, len(want))
		used, err := sel(got, cfg)
		if err != nil || used != len(enc) {
			t.Fatalf("%s/scalar=%v: select: %v, consumed %d of %d bytes", name, scalar, err, used, len(enc))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s/scalar=%v: selection mismatch: got %d want %d matches", name, scalar, countBits(got), countBits(want))
		}
		n, used, err := count(cfg)
		if err != nil || used != len(enc) || n != countBits(want) {
			t.Fatalf("%s/scalar=%v: count %d (%v, consumed %d of %d bytes), want %d", name, scalar, n, err, used, len(enc), countBits(want))
		}
	}
}

// countBits counts the rows of a selection.
func countBits(sel []uint64) int {
	n := 0
	for _, w := range sel {
		n += bits.OnesCount64(w)
	}
	return n
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
				checkKernel(t, shape+"/"+encName+"/"+predName, enc,
					refBits(len(values), func(i int) bool { return p.Match(values[i]) }),
					func(sel []uint64, cfg *Config) (int, error) { return Int.Select(enc, p, sel, nil, cfg) },
					func(cfg *Config) (int, int, error) { return Int.Count(enc, p, nil, cfg) })
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
	got := make([]uint64, (len(values)+63)/64)
	var st SelectStats
	if _, err := Int.Select(enc, p, got, &st, cfg); err != nil {
		t.Fatal(err)
	}
	want := refBits(len(values), func(i int) bool { return p.Match(values[i]) })
	if !slices.Equal(got, want) {
		t.Fatalf("selection mismatch: got %d want %d", countBits(got), countBits(want))
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
	// Edge row: FastBP blocks of width 64 from ref MinInt64, the second
	// one final with 65 values.
	w64 := make([]int64, 193)
	for i := range w64 {
		w64[i] = int64(rng.Uint64())
	}
	w64[0], w64[150] = math.MinInt64, math.MaxInt64
	shapes["w64-minint64"] = w64

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
			for _, p := range preds {
				p.Normalize()
			}
			maps.Copy(preds, edgePreds(values))
			for predName, p := range preds {
				checkKernel(t, shape+"/"+cfgName+"/"+predName, enc,
					refBits(len(values), func(i int) bool { return p.Match(values[i]) }),
					func(sel []uint64, cfg *Config) (int, error) { return Int64.Select(enc, p, sel, nil, cfg) },
					func(cfg *Config) (int, int, error) { return Int64.Count(enc, p, nil, cfg) })
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
				got := make([]uint64, (len(values)+63)/64)
				used, err := Double.Select(enc, p, got, nil, cfg)
				if err != nil {
					t.Fatalf("%s: SelectDouble: %v", name, err)
				}
				if used != len(enc) {
					t.Fatalf("%s: consumed %d of %d bytes", name, used, len(enc))
				}
				want := refBits(len(values), func(i int) bool { return p.Match(values[i]) })
				if !slices.Equal(got, want) {
					t.Fatalf("%s: selection mismatch: got %d want %d",
						name, countBits(got), countBits(want))
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
		encodings := map[string][]byte{"auto": String.Compress(nil, col, cfg)}
		for _, code := range String.Schemes() {
			if enc := String.CompressAs(nil, col, code, cfg); enc != nil {
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
			// Edge row: codes 0, 2 and 6 of the full dictionary ("",
			// alpha, beta, delta, epsilon, gamma, omega, zeta, zzz), 0
			// and 2 of the low-cardinality one.
			"in-3codes": {Op: PredIn, In: [][]byte{[]byte(""), []byte("beta"), []byte("omega")}},
		}
		for encName, enc := range encodings {
			for predName, p := range preds {
				p.Normalize()
				checkKernel(t, shape+"/"+encName+"/"+predName, enc,
					refBits(len(vals), func(i int) bool { return p.Match([]byte(vals[i])) }),
					func(sel []uint64, cfg *Config) (int, error) { return String.Select(enc, p, sel, nil, cfg) },
					func(cfg *Config) (int, int, error) { return String.Count(enc, p, nil, cfg) })
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

// TestSelectNestedStreamOutgrowsParent feeds the kernels Dict streams of
// five rows whose codes stream holds more codes than that: 200 under a
// Frequency stream of ten rows (the Dict is its exceptions), which would
// write past the exceptions' bitset, and six on their own, which fit the
// bitset's one word so that only the check against the parent's n catches
// them. Select, Count and Decompress must all answer ErrCorrupt.
func TestSelectNestedStreamOutgrowsParent(t *testing.T) {
	cfg := &Config{}
	dict := func(codes int) []byte {
		src := binary.LittleEndian.AppendUint32([]byte{byte(CodeDict)}, 5)
		src = binary.LittleEndian.AppendUint32(src, 1) // one dictionary entry
		src = Int.CompressAs(src, []int32{9}, CodeUncompressed, cfg)
		return Int.CompressAs(src, make([]int32, codes), CodeUncompressed, cfg)
	}
	freq := binary.LittleEndian.AppendUint32([]byte{byte(CodeFrequency)}, 10)
	freq = binary.LittleEndian.AppendUint32(freq, 7) // the top value, at rows 0..4
	freq = roaring.FromSlice([]uint32{0, 1, 2, 3, 4}).AppendTo(freq)
	freq = append(freq, dict(200)...)
	for name, src := range map[string][]byte{"frequency of dict": freq, "dict": dict(6)} {
		if _, err := Int.Select(src, Eq[int32](9), make([]uint64, 1), nil, cfg); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: select: %v, want ErrCorrupt", name, err)
		}
		if _, _, err := Int.Count(src, Eq[int32](9), nil, cfg); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: count: %v, want ErrCorrupt", name, err)
		}
		if _, _, err := Int.Decompress(nil, src, cfg); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decompress: %v, want ErrCorrupt", name, err)
		}
	}
}

// TestSelectStringOutgrowsBitset feeds String.Select streams of 100 values
// and a bitset of one word: the OneValue kernel and the decode fallback
// must both answer ErrCorrupt, not write past it.
func TestSelectStringOutgrowsBitset(t *testing.T) {
	cfg := &Config{}
	one := binary.LittleEndian.AppendUint32([]byte{byte(CodeOneValue)}, 100)
	one = binary.LittleEndian.AppendUint32(one, 1)
	one = append(one, 'x')
	vals := make([]string, 100)
	for i := range vals {
		vals[i] = string(rune('a' + i%7))
	}
	plain := String.CompressAs(nil, coldata.MakeStrings(vals), CodeUncompressed, cfg)
	for name, src := range map[string][]byte{"onevalue": one, "uncompressed": plain} {
		if _, err := String.Select(src, &StringPred{Op: PredEq, Eq: []byte("a")}, make([]uint64, 1), nil, cfg); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}
