package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"btrblocks/coldata"
)

func roundTripInt(t *testing.T, src []int32, cfg *Config) []byte {
	t.Helper()
	enc := Int.Compress(nil, src, cfg)
	dec, used, err := Int.Decompress(nil, enc, cfg)
	if err != nil {
		t.Fatalf("decompress (%s): %v", Code(enc[0]), err)
	}
	if used != len(enc) {
		t.Fatalf("consumed %d of %d (%s)", used, len(enc), Code(enc[0]))
	}
	if len(dec) != len(src) {
		t.Fatalf("got %d values, want %d (%s)", len(dec), len(src), Code(enc[0]))
	}
	for i := range src {
		if dec[i] != src[i] {
			t.Fatalf("value %d = %d, want %d (%s)", i, dec[i], src[i], Code(enc[0]))
		}
	}
	return enc
}

func roundTripDouble(t *testing.T, src []float64, cfg *Config) []byte {
	t.Helper()
	enc := Double.Compress(nil, src, cfg)
	dec, used, err := Double.Decompress(nil, enc, cfg)
	if err != nil {
		t.Fatalf("decompress (%s): %v", Code(enc[0]), err)
	}
	if used != len(enc) {
		t.Fatalf("consumed %d of %d (%s)", used, len(enc), Code(enc[0]))
	}
	if len(dec) != len(src) {
		t.Fatalf("got %d values, want %d (%s)", len(dec), len(src), Code(enc[0]))
	}
	for i := range src {
		if math.Float64bits(dec[i]) != math.Float64bits(src[i]) {
			t.Fatalf("value %d = %v, want %v (%s)", i, dec[i], src[i], Code(enc[0]))
		}
	}
	return enc
}

func roundTripString(t *testing.T, src coldata.Strings, cfg *Config) []byte {
	t.Helper()
	enc := CompressString(nil, src, cfg)
	views, used, err := DecompressString(enc, cfg)
	if err != nil {
		t.Fatalf("decompress (%s): %v", Code(enc[0]), err)
	}
	if used != len(enc) {
		t.Fatalf("consumed %d of %d (%s)", used, len(enc), Code(enc[0]))
	}
	if views.Len() != src.Len() {
		t.Fatalf("got %d values, want %d (%s)", views.Len(), src.Len(), Code(enc[0]))
	}
	for i := 0; i < src.Len(); i++ {
		if views.At(i) != src.At(i) {
			t.Fatalf("value %d = %q, want %q (%s)", i, views.At(i), src.At(i), Code(enc[0]))
		}
	}
	requireMaterialized(t, enc, src, cfg)
	return enc
}

// requireMaterialized decodes enc with the other finisher, ParseString +
// AppendTo, the way the block-parallel engine does: into a block's range
// in the middle of a larger column, with a Scratch. The block must write
// its range — want's rows, offsets counted from the range's position —
// and nothing around it, and what it wrote must alias neither the stream
// nor the Scratch (both are scribbled over before the rows are compared).
func requireMaterialized(t *testing.T, enc []byte, want coldata.Strings, cfg *Config) {
	t.Helper()
	const pad = 24 // wider than FSST's 8-byte and the dictionary's 16-byte stores
	c := *cfg
	c.Scratch = new(Scratch)
	stream := append([]byte(nil), enc...)
	blk, used, err := ParseString(stream, &c)
	if err != nil || used != len(enc) {
		t.Fatalf("parse (%s): used %d of %d: %v", Code(enc[0]), used, len(enc), err)
	}
	rows, size := blk.Rows(), blk.Bytes()
	if rows != want.Len() || size != len(want.Data) {
		t.Fatalf("parsed %d rows / %d bytes, want %d / %d (%s)", rows, size, want.Len(), len(want.Data), Code(enc[0]))
	}
	data := bytes.Repeat([]byte{0xA5}, pad+size+pad)
	offsets := make([]uint32, pad+rows+pad)
	for i := range offsets {
		offsets[i] = 0xDEADBEEF
	}
	dst := coldata.Strings{Offsets: offsets[pad : pad : pad+rows], Data: data[pad : pad : pad+size]}
	out, err := blk.AppendTo(dst, pad, c.Scratch)
	if err != nil {
		t.Fatalf("append (%s): %v", Code(enc[0]), err)
	}
	if len(out.Data) != size || len(out.Offsets) != rows ||
		size > 0 && &out.Data[0] != &data[pad] || rows > 0 && &out.Offsets[0] != &offsets[pad] {
		t.Fatalf("block did not fill its range in place (%s)", Code(enc[0]))
	}
	for i := 0; i < pad; i++ {
		if data[i] != 0xA5 || data[pad+size+i] != 0xA5 || offsets[i] != 0xDEADBEEF || offsets[pad+rows+i] != 0xDEADBEEF {
			t.Fatalf("block wrote outside its range (%s)", Code(enc[0]))
		}
	}
	clear(stream)
	for _, free := range c.Scratch.ints.free {
		clear(free[:cap(free)])
	}
	lo := uint32(pad)
	for i := 0; i < rows; i++ {
		hi := offsets[pad+i]
		if hi < lo || int(hi) > pad+size || string(data[lo:hi]) != want.At(i) {
			t.Fatalf("row %d = data[%d:%d], want %q (%s)", i, lo, hi, want.At(i), Code(enc[0]))
		}
		lo = hi
	}
}

// --- integer scheme selection & round trips ---

func TestIntOneValueColumn(t *testing.T) {
	cfg := DefaultConfig()
	src := make([]int32, 64000) // the paper's all-zero "New Build?" column
	enc := roundTripInt(t, src, cfg)
	if Code(enc[0]) != CodeOneValue {
		t.Fatalf("scheme = %s, want OneValue", Code(enc[0]))
	}
	if ratio := float64(len(src)*4) / float64(len(enc)); ratio < 10000 {
		t.Fatalf("one-value ratio only %.0f", ratio)
	}
}

func TestIntRunsChooseRLE(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(71))
	src := make([]int32, 0, 64000)
	for len(src) < 64000 {
		v := int32(rng.Intn(50))
		l := 20 + rng.Intn(200)
		for i := 0; i < l && len(src) < 64000; i++ {
			src = append(src, v)
		}
	}
	enc := roundTripInt(t, src, cfg)
	if got := Code(enc[0]); got != CodeRLE && got != CodeDict {
		t.Fatalf("scheme = %s, want RLE (or Dict over RLE codes)", got)
	}
	if ratio := float64(len(src)*4) / float64(len(enc)); ratio < 20 {
		t.Fatalf("run data compressed only %.1fx", ratio)
	}
}

func TestIntSmallRangeChoosesBitpack(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(72))
	src := make([]int32, 64000)
	for i := range src {
		src[i] = 1000000 + int32(rng.Intn(256))
	}
	enc := roundTripInt(t, src, cfg)
	if got := Code(enc[0]); got != CodeFastBP && got != CodeFastPFOR {
		t.Fatalf("scheme = %s, want FastBP/FastPFOR", got)
	}
	if ratio := float64(len(src)*4) / float64(len(enc)); ratio < 3 {
		t.Fatalf("8-bit range compressed only %.2fx", ratio)
	}
}

func TestIntOutliersChooseFastPFOR(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(73))
	src := make([]int32, 64000)
	for i := range src {
		src[i] = int32(rng.Intn(64))
		if i%100 == 0 {
			src[i] = int32(1 << 28)
		}
	}
	enc := roundTripInt(t, src, cfg)
	if got := Code(enc[0]); got != CodeFastPFOR {
		t.Fatalf("scheme = %s, want FastPFOR on outlier-heavy data", got)
	}
}

func TestIntFrequencySkew(t *testing.T) {
	cfg := &Config{IntSchemes: []Code{CodeFrequency}}
	rng := rand.New(rand.NewSource(74))
	src := make([]int32, 64000)
	for i := range src {
		if rng.Float64() < 0.9 {
			src[i] = 7777
		} else {
			src[i] = rng.Int31()
		}
	}
	enc := roundTripInt(t, src, cfg)
	if Code(enc[0]) != CodeFrequency {
		t.Fatalf("scheme = %s, want Frequency with restricted pool", Code(enc[0]))
	}
	if ratio := float64(len(src)*4) / float64(len(enc)); ratio < 3 {
		t.Fatalf("frequency ratio only %.2f", ratio)
	}
}

func TestIntEmptyAndTiny(t *testing.T) {
	cfg := DefaultConfig()
	roundTripInt(t, nil, cfg)
	roundTripInt(t, []int32{}, cfg)
	roundTripInt(t, []int32{42}, cfg)
	roundTripInt(t, []int32{math.MinInt32, math.MaxInt32}, cfg)
}

func TestIntScalarDecodeMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	src := make([]int32, 0, 30000)
	for len(src) < 30000 {
		v := int32(rng.Intn(100))
		for i := 0; i < 1+rng.Intn(50) && len(src) < 30000; i++ {
			src = append(src, v)
		}
	}
	enc := Int.Compress(nil, src, DefaultConfig())
	fast, _, err := Int.Decompress(nil, enc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scalar, _, err := Int.Decompress(nil, enc, &Config{ScalarDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if fast[i] != scalar[i] || fast[i] != src[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestIntQuick(t *testing.T) {
	cfg := DefaultConfig()
	f := func(src []int32) bool {
		enc := Int.Compress(nil, src, cfg)
		dec, used, err := Int.Decompress(nil, enc, cfg)
		if err != nil || used != len(enc) || len(dec) != len(src) {
			return false
		}
		for i := range src {
			if dec[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	src := make([]int32, 0, 5000)
	for len(src) < 5000 {
		v := int32(rng.Intn(30))
		for i := 0; i < 1+rng.Intn(20) && len(src) < 5000; i++ {
			src = append(src, v)
		}
	}
	cfg := DefaultConfig()
	enc := Int.Compress(nil, src, cfg)
	for cut := 0; cut < len(enc); cut += 7 {
		dec, used, err := Int.Decompress(nil, enc[:cut], cfg)
		if err == nil && used == len(enc) {
			t.Fatalf("truncation at %d: decoded %d values without error", cut, len(dec))
		}
	}
}

// --- double scheme selection & round trips ---

func TestDoublePaperCascadeExample(t *testing.T) {
	// §3.2's example input: RLE over doubles with cascaded sub-streams.
	cfg := DefaultConfig()
	src := []float64{3.5, 3.5, 18, 18, 3.5, 3.5}
	roundTripDouble(t, src, cfg)
}

func TestDoublePricingChoosesPDEOrDict(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(81))
	src := make([]float64, 64000)
	for i := range src {
		src[i] = float64(10000+rng.Intn(4000000)) / 100
	}
	enc := roundTripDouble(t, src, cfg)
	if got := Code(enc[0]); got != CodePDE {
		t.Fatalf("scheme = %s, want Pseudodecimal on high-cardinality prices", got)
	}
	if ratio := float64(len(src)*8) / float64(len(enc)); ratio < 1.5 {
		t.Fatalf("pricing doubles compressed only %.2fx", ratio)
	}
}

func TestDoubleLowCardinalityChoosesDictOrRLE(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(82))
	vals := []float64{0, 0.5, 99.99, 12.25}
	src := make([]float64, 64000)
	for i := range src {
		src[i] = vals[rng.Intn(len(vals))]
	}
	enc := roundTripDouble(t, src, cfg)
	if got := Code(enc[0]); got != CodeDict && got != CodeFrequency {
		t.Fatalf("scheme = %s, want Dict/Frequency on low-cardinality doubles", got)
	}
}

func TestDoubleSpecialValues(t *testing.T) {
	cfg := DefaultConfig()
	src := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e300, 5.5e-42}
	roundTripDouble(t, src, cfg)
}

func TestDoubleScalarDecodeMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	src := make([]float64, 64000)
	for i := range src {
		src[i] = float64(rng.Intn(100000)) / 100
		if i%977 == 0 {
			src[i] = math.NaN()
		}
	}
	enc := Double.Compress(nil, src, DefaultConfig())
	fast, _, err := Double.Decompress(nil, enc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scalar, _, err := Double.Decompress(nil, enc, &Config{ScalarDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if math.Float64bits(fast[i]) != math.Float64bits(src[i]) ||
			math.Float64bits(scalar[i]) != math.Float64bits(src[i]) {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestDoubleQuick(t *testing.T) {
	cfg := DefaultConfig()
	f := func(raw []uint64) bool {
		src := make([]float64, len(raw))
		for i, b := range raw {
			src[i] = math.Float64frombits(b)
		}
		enc := Double.Compress(nil, src, cfg)
		dec, used, err := Double.Decompress(nil, enc, cfg)
		if err != nil || used != len(enc) || len(dec) != len(src) {
			return false
		}
		for i := range src {
			if math.Float64bits(dec[i]) != math.Float64bits(src[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- string scheme selection & round trips ---

func makeStringCol(n int, gen func(i int) string) coldata.Strings {
	out := coldata.NewStringsBuilder(n, 0)
	for i := 0; i < n; i++ {
		out = out.Append(gen(i))
	}
	return out
}

func TestStringOneValue(t *testing.T) {
	cfg := DefaultConfig()
	src := makeStringCol(64000, func(int) string { return "CABLE" })
	enc := roundTripString(t, src, cfg)
	if Code(enc[0]) != CodeOneValue {
		t.Fatalf("scheme = %s, want OneValue", Code(enc[0]))
	}
}

func TestStringLowCardinalityChoosesDict(t *testing.T) {
	cfg := DefaultConfig()
	cities := []string{"PHOENIX", "RALEIGH", "BETHESDA", "ATHENS", "All Residential"}
	rng := rand.New(rand.NewSource(91))
	src := makeStringCol(64000, func(int) string { return cities[rng.Intn(len(cities))] })
	enc := roundTripString(t, src, cfg)
	if Code(enc[0]) != CodeDict {
		t.Fatalf("scheme = %s, want Dictionary", Code(enc[0]))
	}
	if ratio := float64(src.TotalBytes()) / float64(len(enc)); ratio < 10 {
		t.Fatalf("low-cardinality strings compressed only %.1fx", ratio)
	}
}

func TestStringStructuredHighCardinality(t *testing.T) {
	// URLs with shared prefixes but mostly unique: FSST territory (direct
	// or via a dictionary pool).
	cfg := DefaultConfig()
	src := makeStringCol(20000, func(i int) string {
		return fmt.Sprintf("https://www.shop.example/products/category-%d/item-%d", i%37, i)
	})
	enc := roundTripString(t, src, cfg)
	got := Code(enc[0])
	if got != CodeFSST && got != CodeDict {
		t.Fatalf("scheme = %s, want FSST or Dict+FSST", got)
	}
	if ratio := float64(src.TotalBytes()) / float64(len(enc)); ratio < 2 {
		t.Fatalf("structured URLs compressed only %.2fx", ratio)
	}
}

func TestStringDictRLEFusedPath(t *testing.T) {
	// long runs of few values: dict codes get RLE, triggering the fused
	// decode; verify it agrees with the unfused and scalar paths.
	src := coldata.NewStringsBuilder(60000, 0)
	rng := rand.New(rand.NewSource(92))
	vals := []string{"01 BRONX", "04 BRONX", "03 QUEENS", "STATEN ISLAND"}
	for src.Len() < 60000 {
		v := vals[rng.Intn(len(vals))]
		l := 10 + rng.Intn(100)
		for i := 0; i < l && src.Len() < 60000; i++ {
			src = src.Append(v)
		}
	}
	enc := CompressString(nil, src, DefaultConfig())
	fused, _, err := DecompressString(enc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	unfused, _, err := DecompressString(enc, &Config{DisableFuseDictRLE: true})
	if err != nil {
		t.Fatal(err)
	}
	scalar, _, err := DecompressString(enc, &Config{ScalarDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < src.Len(); i++ {
		want := src.At(i)
		if fused.At(i) != want || unfused.At(i) != want || scalar.At(i) != want {
			t.Fatalf("mismatch at %d", i)
		}
	}
	requireMaterialized(t, enc, src, DefaultConfig())
	requireMaterialized(t, enc, src, &Config{DisableFuseDictRLE: true})
}

func TestStringEmptyValuesAndEmptyColumn(t *testing.T) {
	cfg := DefaultConfig()
	roundTripString(t, coldata.Strings{}, cfg)
	roundTripString(t, coldata.MakeStrings([]string{"", "", ""}), cfg)
	roundTripString(t, coldata.MakeStrings([]string{"", "a", "", "bb", ""}), cfg)
}

func TestStringQuick(t *testing.T) {
	cfg := DefaultConfig()
	f := func(values []string) bool {
		src := coldata.MakeStrings(values)
		enc := CompressString(nil, src, cfg)
		views, used, err := DecompressString(enc, cfg)
		if err != nil || used != len(enc) || views.Len() != src.Len() {
			return false
		}
		for i := 0; i < src.Len(); i++ {
			if views.At(i) != src.At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringTruncation(t *testing.T) {
	cfg := DefaultConfig()
	src := makeStringCol(5000, func(i int) string {
		return fmt.Sprintf("value-%d", i%7)
	})
	enc := CompressString(nil, src, cfg)
	for cut := 0; cut < len(enc); cut += 3 {
		views, used, err := DecompressString(enc[:cut], cfg)
		if err == nil && used == len(enc) {
			t.Fatalf("truncation at %d: decoded %d values without error", cut, views.Len())
		}
		if _, used, err := ParseString(enc[:cut], cfg); err == nil && used == len(enc) {
			t.Fatalf("truncation at %d: parsed without error", cut)
		}
	}
}

// --- cascading behaviour ---

func TestCascadeDepthZeroIsPlain(t *testing.T) {
	cfg := &Config{MaxCascadeDepth: -1}
	// normalized() restores the default, so use depth 1 then inspect
	cfg = &Config{MaxCascadeDepth: 1, IntSchemes: []Code{CodeRLE}}
	src := make([]int32, 1000) // all zero: RLE viable at depth 1
	enc := Int.Compress(nil, src, cfg)
	// At depth 1, RLE's sub-streams must be Uncompressed (depth 0).
	if Code(enc[0]) != CodeRLE {
		t.Skipf("RLE not chosen (%s)", Code(enc[0]))
	}
	if Code(enc[9]) != CodeUncompressed {
		t.Fatalf("values sub-stream at depth 0 = %s, want Uncompressed", Code(enc[9]))
	}
	dec, _, err := Int.Decompress(nil, enc, cfg)
	if err != nil || len(dec) != len(src) {
		t.Fatalf("depth-1 round trip broken: %v", err)
	}
}

func TestDeepCascadeRespectsMaxDepth(t *testing.T) {
	// Count the maximum nesting by decoding recursively: with depth 3, a
	// stream's sub-sub-sub-streams must be Uncompressed or terminal.
	rng := rand.New(rand.NewSource(95))
	src := make([]int32, 0, 64000)
	for len(src) < 64000 {
		v := int32(rng.Intn(10))
		for i := 0; i < 30+rng.Intn(100) && len(src) < 64000; i++ {
			src = append(src, v)
		}
	}
	cfg := DefaultConfig()
	enc := Int.Compress(nil, src, cfg)
	if d := maxIntStreamDepth(t, enc); d > cfg.MaxCascadeDepth {
		t.Fatalf("cascade depth %d exceeds max %d", d, cfg.MaxCascadeDepth)
	}
}

// maxIntStreamDepth walks the nested stream structure of an int stream.
func maxIntStreamDepth(t *testing.T, enc []byte) int {
	t.Helper()
	code := Code(enc[0])
	switch code {
	case CodeRLE:
		v := 1 + 8
		inner, used, err := Int.Decompress(nil, enc[v:], DefaultConfig())
		_ = inner
		if err != nil {
			t.Fatal(err)
		}
		d1 := maxIntStreamDepth(t, enc[v:v+used])
		d2 := maxIntStreamDepth(t, enc[v+used:])
		return 1 + max(d1, d2)
	case CodeDict:
		v := 1 + 8
		_, used, err := Int.Decompress(nil, enc[v:], DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d1 := maxIntStreamDepth(t, enc[v:v+used])
		d2 := maxIntStreamDepth(t, enc[v+used:])
		return 1 + max(d1, d2)
	default:
		return 1
	}
}

// --- choose reporting ---

func TestChooseReportsScheme(t *testing.T) {
	cfg := DefaultConfig()
	src := make([]int32, 64000)
	code, ratio := Int.Choose(src, cfg)
	if code != CodeOneValue || ratio < 1000 {
		t.Fatalf("ChooseInt = %s/%.1f", code, ratio)
	}
	dsrc := make([]float64, 1000)
	for i := range dsrc {
		dsrc[i] = 1.5
	}
	dcode, _ := Double.Choose(dsrc, cfg)
	if dcode != CodeOneValue {
		t.Fatalf("ChooseDouble = %s", dcode)
	}
	scol := makeStringCol(1000, func(i int) string { return "x" })
	scode, _ := ChooseString(scol, cfg)
	if scode != CodeOneValue {
		t.Fatalf("ChooseString = %s", scode)
	}
}

func BenchmarkDecompressIntRLE(b *testing.B) {
	rng := rand.New(rand.NewSource(101))
	src := make([]int32, 0, 64000)
	for len(src) < 64000 {
		v := int32(rng.Intn(50))
		for i := 0; i < 20+rng.Intn(100) && len(src) < 64000; i++ {
			src = append(src, v)
		}
	}
	cfg := DefaultConfig()
	enc := Int.Compress(nil, src, cfg)
	dst := make([]int32, 0, len(src))
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, _, err = Int.Decompress(dst[:0], enc, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressStringDict(b *testing.B) {
	cities := []string{"PHOENIX", "RALEIGH", "BETHESDA", "ATHENS", "5777 E MAYO BLVD"}
	rng := rand.New(rand.NewSource(102))
	src := coldata.NewStringsBuilder(64000, 0)
	for src.Len() < 64000 {
		src = src.Append(cities[rng.Intn(len(cities))])
	}
	cfg := DefaultConfig()
	enc := CompressString(nil, src, cfg)
	b.SetBytes(int64(src.TotalBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecompressString(enc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
