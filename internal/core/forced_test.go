package core

import (
	"math"
	"math/rand"
	"testing"

	"btrblocks/coldata"
	"btrblocks/internal/stats"
)

// forcedRoundTrip forces each scheme onto its input and checks the root
// tag and the round trip.
func forcedRoundTrip[T numeric, K stats.Key](t *testing.T, typ *Numeric[T, K], inputs map[Code][]T, same func(a, b T) bool) {
	t.Helper()
	cfg := DefaultConfig()
	for code, src := range inputs {
		enc := typ.CompressAs(nil, src, code, cfg)
		if enc == nil {
			t.Fatalf("%s/%s: not applicable to its own test input", typ.kind, code)
		}
		if Code(enc[0]) != code {
			t.Fatalf("%s/%s: wrong root scheme %s", typ.kind, code, Code(enc[0]))
		}
		dec, used, err := typ.Decompress(nil, enc, cfg)
		if err != nil || used != len(enc) {
			t.Fatalf("%s/%s: decode failed: %v (used %d/%d)", typ.kind, code, err, used, len(enc))
		}
		for i := range src {
			if !same(dec[i], src[i]) {
				t.Fatalf("%s/%s: value %d mismatch", typ.kind, code, i)
			}
		}
	}
	// inapplicable scheme returns nil
	if typ.CompressAs(nil, inputs[CodeUncompressed], CodeOneValue, cfg) != nil {
		t.Fatalf("%s: OneValue on multi-value block must be inapplicable", typ.kind)
	}
	if typ.CompressAs(nil, inputs[CodeUncompressed][:1], CodeFSST, cfg) != nil {
		t.Fatalf("%s: FSST is not a numeric scheme", typ.kind)
	}
	if typ.CompressAs(nil, nil, CodeRLE, cfg) != nil {
		t.Fatalf("%s: empty input only supports Uncompressed", typ.kind)
	}
}

// TestForcedIntSchemesRoundTrip exercises every forced root scheme of both
// integer types on suitable inputs.
func TestForcedIntSchemesRoundTrip(t *testing.T) {
	forcedRoundTrip(t, Int, map[Code][]int32{
		CodeUncompressed: {1, -2, 3},
		CodeOneValue:     {7, 7, 7, 7},
		CodeRLE:          {1, 1, 1, 2, 2, 3, 3, 3, 3},
		CodeDict:         {100, 200, 100, 300, 200},
		CodeFrequency:    {5, 5, 5, 5, 9, 5, 5, 1},
		CodeFastBP:       {1000, 1001, 1002, 1003},
		CodeFastPFOR:     {1, 2, 1 << 28, 3, 4},
	}, func(a, b int32) bool { return a == b })
	forcedRoundTrip(t, Int64, map[Code][]int64{
		CodeUncompressed: {1, -2, 3 << 40},
		CodeOneValue:     {7 << 40, 7 << 40, 7 << 40},
		CodeRLE:          {1, 1, 1, -2 << 50, -2 << 50, 3, 3, 3, 3},
		CodeDict:         {100, 2 << 44, 100, 300, 2 << 44},
		CodeFrequency:    {5, 5, 5, 5, math.MaxInt64, 5, 5, math.MinInt64},
		CodeFastBP:       {1 << 41, 1<<41 + 1, 1<<41 + 2, 1<<41 + 3},
	}, func(a, b int64) bool { return a == b })
	cfg := DefaultConfig()
	if Int.CompressAs(nil, []int32{1}, CodePDE, cfg) != nil {
		t.Fatal("PDE is not an int scheme")
	}
	if Int64.CompressAs(nil, []int64{1, 2}, CodeFastPFOR, cfg) != nil {
		t.Fatal("FastPFOR is not an int64 scheme")
	}
}

func TestForcedDoubleSchemesRoundTrip(t *testing.T) {
	nan := math.NaN()
	forcedRoundTrip(t, Double, map[Code][]float64{
		CodeUncompressed: {1.5, -2.25},
		CodeOneValue:     {nan, nan, nan}, // bit-identical NaNs are one value
		CodeRLE:          {3.5, 3.5, 18, 18, 3.5, 3.5},
		CodeDict:         {0.5, 1.5, 0.5, 2.5},
		CodeFrequency:    {9.75, 9.75, 9.75, 1.25, 9.75},
		CodePDE:          {3.25, 0.99, -6.425, 5.5e-42},
	}, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
}

func TestForcedDoubleRLELongRuns(t *testing.T) {
	// Exercises the optimized double run expansion (doubling copy) and
	// the scalar variant on the same stream.
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, 0, 50000)
	for len(src) < 50000 {
		v := float64(rng.Intn(5))
		l := 1 + rng.Intn(200) // mixes short (unrolled) and long (doubling) runs
		for k := 0; k < l && len(src) < 50000; k++ {
			src = append(src, v)
		}
	}
	enc := Double.CompressAs(nil, src, CodeRLE, cfg)
	if enc == nil {
		t.Fatal("RLE must be applicable")
	}
	fast, _, err := Double.Decompress(nil, enc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scalar, _, err := Double.Decompress(nil, enc, &Config{ScalarDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if fast[i] != src[i] || scalar[i] != src[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestForcedStringSchemesRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	inputs := map[Code][]string{
		CodeUncompressed: {"a", "bb"},
		CodeOneValue:     {"same", "same", "same"},
		CodeDict:         {"x", "y", "x", "z"},
		CodeFSST:         {"http://a.example/1", "http://a.example/2", "http://a.example/3"},
	}
	for code, vals := range inputs {
		src := coldata.MakeStrings(vals)
		enc := CompressStringAs(nil, src, code, cfg)
		if enc == nil {
			t.Fatalf("%s: not applicable to its own test input", code)
		}
		views, used, err := DecompressString(enc, cfg)
		if err != nil || used != len(enc) {
			t.Fatalf("%s: decode failed: %v", code, err)
		}
		for i := range vals {
			if views.At(i) != vals[i] {
				t.Fatalf("%s: value %d mismatch", code, i)
			}
		}
		requireMaterialized(t, enc, src, cfg)
	}
	if CompressStringAs(nil, coldata.MakeStrings([]string{"a", "b"}), CodeOneValue, cfg) != nil {
		t.Fatal("OneValue on multi-value block must be inapplicable")
	}
	if CompressStringAs(nil, coldata.MakeStrings([]string{"a"}), CodeRLE, cfg) != nil {
		t.Fatal("RLE is not a string root scheme")
	}
}

func TestSchemeListsAndNames(t *testing.T) {
	if len(Int.Schemes()) != 7 || len(Int64.Schemes()) != 6 || len(Double.Schemes()) != 6 || len(StringSchemes()) != 4 {
		t.Fatalf("scheme list sizes: %d/%d/%d/%d",
			len(Int.Schemes()), len(Int64.Schemes()), len(Double.Schemes()), len(StringSchemes()))
	}
	for c := CodeUncompressed; c < numCodes; c++ {
		if c.String() == "Invalid" || c.String() == "" {
			t.Fatalf("code %d has no name", c)
		}
	}
	if Code(200).String() != "Invalid" {
		t.Fatal("out-of-range code must stringify as Invalid")
	}
}

func TestEstimateOnlySmoke(t *testing.T) {
	cfg := DefaultConfig()
	Int.Choose(make([]int32, 5000), cfg)
	Double.Choose(make([]float64, 5000), cfg)
	ChooseString(coldata.MakeStrings([]string{"a", "a", "b"}), cfg)
}

func TestCountEqualCoreLevel(t *testing.T) {
	cfg := DefaultConfig()
	// RLE path: counts come from run lengths, not expansion.
	src := []int32{4, 4, 4, 9, 9, 4, 4}
	enc := Int.CompressAs(nil, src, CodeRLE, cfg)
	count, used, err := Int.Count(enc, Eq[int32](4), nil, cfg)
	if err != nil || used != len(enc) || count != 5 {
		t.Fatalf("RLE count = %d (err %v)", count, err)
	}
	// Frequency path: top value answered from the bitmap.
	freqSrc := []int32{7, 7, 7, 7, 2, 7, 7, 3}
	enc = Int.CompressAs(nil, freqSrc, CodeFrequency, cfg)
	count, _, err = Int.Count(enc, Eq[int32](7), nil, cfg)
	if err != nil || count != 6 {
		t.Fatalf("Frequency top count = %d (err %v)", count, err)
	}
	count, _, err = Int.Count(enc, Eq[int32](3), nil, cfg)
	if err != nil || count != 1 {
		t.Fatalf("Frequency exception count = %d (err %v)", count, err)
	}
	// Double dict path.
	dsrc := []float64{1.5, 2.5, 1.5, 1.5}
	denc := Double.CompressAs(nil, dsrc, CodeDict, cfg)
	dcount, _, err := Double.Count(denc, DoubleEq(1.5), nil, cfg)
	if err != nil || dcount != 3 {
		t.Fatalf("double dict count = %d (err %v)", dcount, err)
	}
	if dcount, _, _ := Double.Count(denc, DoubleEq(9.0), nil, cfg); dcount != 0 {
		t.Fatalf("absent double counted %d", dcount)
	}
	// String dict path.
	ssrc := coldata.MakeStrings([]string{"a", "b", "a", "a", "c"})
	senc := CompressStringAs(nil, ssrc, CodeDict, cfg)
	scount, _, err := CountString(senc, &StringPred{Op: PredEq, Eq: []byte("a")}, nil, cfg)
	if err != nil || scount != 3 {
		t.Fatalf("string dict count = %d (err %v)", scount, err)
	}
	if scount, _, _ := CountString(senc, &StringPred{Op: PredEq, Eq: []byte("zz")}, nil, cfg); scount != 0 {
		t.Fatalf("absent string counted %d", scount)
	}
	// Errors on garbage.
	if _, _, err := Int.Count([]byte{}, Eq[int32](1), nil, cfg); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, _, err := CountString([]byte{99}, &StringPred{Op: PredEq, Eq: []byte("x")}, nil, cfg); err == nil {
		t.Fatal("bad scheme code accepted")
	}
}
