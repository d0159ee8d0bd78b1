package btrblocks

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"btrblocks/internal/core"
)

// countRefInt is the reference: compare the ground-truth rows one by one.
func countRefInt(col Column, v int32) int {
	n := 0
	for i, x := range col.Ints {
		if x == v && !col.Nulls.IsNull(i) {
			n++
		}
	}
	return n
}

func mustCompressWith(t *testing.T, col Column, opt *Options) []byte {
	t.Helper()
	data, err := CompressColumn(col, opt)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCountEqualInt32AllSchemes(t *testing.T) {
	opt := DefaultOptions()
	rng := rand.New(rand.NewSource(1))

	makers := map[string]func(n int) []int32{
		"onevalue": func(n int) []int32 { return make([]int32, n) },
		"runs": func(n int) []int32 {
			out := make([]int32, 0, n)
			for len(out) < n {
				v := int32(rng.Intn(10))
				for k := 0; k < 20+rng.Intn(100) && len(out) < n; k++ {
					out = append(out, v)
				}
			}
			return out
		},
		"smallrange": func(n int) []int32 {
			out := make([]int32, n)
			for i := range out {
				out[i] = int32(rng.Intn(64))
			}
			return out
		},
		"skewed": func(n int) []int32 {
			out := make([]int32, n)
			for i := range out {
				if rng.Float64() < 0.9 {
					out[i] = 7
				} else {
					out[i] = rng.Int31()
				}
			}
			return out
		},
		"outliers": func(n int) []int32 {
			out := make([]int32, n)
			for i := range out {
				out[i] = int32(rng.Intn(16))
				if i%97 == 0 {
					out[i] = 1 << 29
				}
			}
			return out
		},
	}
	for name, mk := range makers {
		values := mk(64000)
		col := IntColumn("c", values)
		data, err := CompressColumn(col, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, probe := range []int32{0, 7, 5, 1 << 29, -1, values[100]} {
			got, err := Count(data, IntEq(probe), opt)
			if err != nil {
				t.Fatalf("%s probe %d: %v", name, probe, err)
			}
			if want := countRefInt(col, probe); got != want {
				t.Fatalf("%s probe %d: got %d, want %d", name, probe, got, want)
			}
		}
	}
}

func TestCountEqualDoubleSchemes(t *testing.T) {
	opt := DefaultOptions()
	rng := rand.New(rand.NewSource(2))
	makers := map[string]func(n int) []float64{
		"pricing": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(rng.Intn(500)) / 4 // quarters: exact
			}
			return out
		},
		"dict": func(n int) []float64 {
			vals := []float64{0, 1.5, math.Pi, 99.99}
			out := make([]float64, n)
			for i := range out {
				out[i] = vals[rng.Intn(len(vals))]
			}
			return out
		},
		"runs": func(n int) []float64 {
			out := make([]float64, 0, n)
			for len(out) < n {
				v := float64(rng.Intn(8))
				for k := 0; k < 30+rng.Intn(60) && len(out) < n; k++ {
					out = append(out, v)
				}
			}
			return out
		},
	}
	for name, mk := range makers {
		values := mk(64000)
		col := DoubleColumn("c", values)
		data, err := CompressColumn(col, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, probe := range []float64{0, 1.5, values[5], -7.25, math.Pi} {
			got, err := Count(data, DoubleEq(probe), opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := 0
			pb := math.Float64bits(probe)
			for _, x := range values {
				if math.Float64bits(x) == pb {
					want++
				}
			}
			if got != want {
				t.Fatalf("%s probe %v: got %d, want %d", name, probe, got, want)
			}
		}
	}
}

func TestCountEqualStringSchemes(t *testing.T) {
	opt := DefaultOptions()
	rng := rand.New(rand.NewSource(3))
	makers := map[string]func(n int) []string{
		"onevalue": func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = "CABLE"
			}
			return out
		},
		"dict": func(n int) []string {
			vals := []string{"PHOENIX", "RALEIGH", "ATHENS"}
			out := make([]string, n)
			for i := range out {
				out[i] = vals[rng.Intn(len(vals))]
			}
			return out
		},
		"dictRuns": func(n int) []string {
			vals := []string{"01 BRONX", "04 BRONX", "03 QUEENS"}
			out := make([]string, 0, n)
			for len(out) < n {
				v := vals[rng.Intn(len(vals))]
				for k := 0; k < 40+rng.Intn(80) && len(out) < n; k++ {
					out = append(out, v)
				}
			}
			return out
		},
		"fsst": func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = fmt.Sprintf("https://example.com/products/item-%d", i)
			}
			return out
		},
	}
	for name, mk := range makers {
		values := mk(30000)
		col := StringColumn("c", values)
		data, err := CompressColumn(col, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, probe := range []string{"CABLE", "PHOENIX", "01 BRONX", values[7], "missing-value"} {
			got, err := Count(data, StringEq(probe), opt)
			if err != nil {
				t.Fatalf("%s probe %q: %v", name, probe, err)
			}
			want := 0
			for _, x := range values {
				if x == probe {
					want++
				}
			}
			if got != want {
				t.Fatalf("%s probe %q: got %d, want %d", name, probe, got, want)
			}
		}
	}
}

func TestCountEqualRespectsNulls(t *testing.T) {
	// NULL slots are rewritten by densification and must never count.
	opt := DefaultOptions()
	n := 10000
	values := make([]int32, n)
	nulls := NewNullMask()
	for i := range values {
		values[i] = 5
		if i%3 == 0 {
			nulls.SetNull(i)
			values[i] = 999 // garbage that densification replaces
		}
	}
	col := IntColumn("c", values)
	col.Nulls = nulls
	data, err := CompressColumn(col, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Count(data, IntEq(5), opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := countRefInt(col, 5); got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
	// 999 slots are NULL; they must not be observable as matches
	got999, err := Count(data, IntEq(999), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got999 != 0 {
		t.Fatalf("NULL garbage matched %d times", got999)
	}
}

func TestCountEqualTypeMismatch(t *testing.T) {
	opt := DefaultOptions()
	data, err := CompressColumn(IntColumn("c", []int32{1, 2, 3}), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Count(data, StringEq("x"), opt); err != ErrTypeMismatch {
		t.Fatalf("err = %v, want type mismatch", err)
	}
	if _, err := Count(data, DoubleEq(1), opt); err != ErrTypeMismatch {
		t.Fatalf("err = %v, want type mismatch", err)
	}
}

func TestCountEqualQuick(t *testing.T) {
	opt := &Options{BlockSize: 500}
	f := func(values []int32, probe int32) bool {
		// push values into a small range so matches actually occur
		for i := range values {
			values[i] &= 15
		}
		probe &= 15
		col := IntColumn("c", values)
		data, err := CompressColumn(col, opt)
		if err != nil {
			return false
		}
		got, err := Count(data, IntEq(probe), opt)
		if err != nil {
			return false
		}
		return got == countRefInt(col, probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCountEqualStringDictMissNoDecode(t *testing.T) {
	// A probe absent from a Dict block's dictionary is decided by the
	// dictionary probe alone; the compressed codes are never decoded. The
	// decode telemetry counter is the witness: it is bumped only where
	// values are actually materialized.
	rng := rand.New(rand.NewSource(11))
	vals := []string{"PHOENIX", "RALEIGH", "ATHENS", "CURITIBA"}
	values := make([]string, 30000)
	for i := range values {
		values[i] = vals[rng.Intn(len(vals))]
	}
	opt := &Options{Telemetry: NewTelemetry()}
	data, err := CompressColumn(StringColumn("c", values), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Telemetry.Reset()

	got, err := Count(data, StringEq("no-such-city"), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("dict miss counted %d matches", got)
	}
	if snap := opt.Telemetry.Snapshot(); snap.DecodeBlocks != 0 {
		t.Fatalf("dict-miss probe decoded %d blocks; want 0", snap.DecodeBlocks)
	}

	// The same count for a present value must still be exact — and still
	// decode-free.
	want := 0
	for _, x := range values {
		if x == "ATHENS" {
			want++
		}
	}
	got, err = Count(data, StringEq("ATHENS"), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("dict hit: got %d, want %d", got, want)
	}
	if snap := opt.Telemetry.Snapshot(); snap.DecodeBlocks != 0 {
		t.Fatalf("NULL-free scan decoded %d blocks; want 0", snap.DecodeBlocks)
	}
}

func TestCountEqualNullsExcludedEverySchemePath(t *testing.T) {
	// Every scheme's path must exclude NULL rows. Each sub-test pins the
	// scheme pool and plants NULL slots whose garbage value equals the
	// probe, so any path that forgets the mask overcounts.
	const n = 12000
	nulls := NewNullMask()
	for i := 0; i < n; i += 3 {
		nulls.SetNull(i)
	}
	rng := rand.New(rand.NewSource(12))

	t.Run("int", func(t *testing.T) {
		for _, tc := range []struct {
			scheme string
			pool   []Scheme
			mk     func(i int) int32
		}{
			{"uncompressed", []Scheme{}, func(i int) int32 { return rng.Int31() }},
			{"onevalue", []Scheme{SchemeOneValue}, func(i int) int32 { return 7 }},
			{"rle", []Scheme{SchemeRLE}, func(i int) int32 { return int32(i / 500) }},
			{"dict", []Scheme{SchemeDict}, func(i int) int32 { return int32(rng.Intn(5)) * 1000 }},
			{"frequency", []Scheme{SchemeFrequency}, func(i int) int32 {
				if rng.Float64() < 0.95 {
					return 7
				}
				return rng.Int31()
			}},
			{"fastbp", []Scheme{SchemeFastBP}, func(i int) int32 { return int32(rng.Intn(1000)) }},
			{"fastpfor", []Scheme{SchemeFastPFOR}, func(i int) int32 {
				v := int32(rng.Intn(64))
				if i%97 == 0 {
					v = 1 << 28
				}
				return v
			}},
		} {
			values := make([]int32, n)
			for i := range values {
				values[i] = tc.mk(i)
			}
			probe := values[1] // a real value; NULL slots get the same one
			for i := 0; i < n; i += 3 {
				values[i] = probe // garbage in NULL slots, equal to probe
			}
			col := IntColumn("c", values)
			col.Nulls = nulls
			opt := &Options{IntSchemes: tc.pool}
			data, err := CompressColumn(col, opt)
			if err != nil {
				t.Fatalf("%s: %v", tc.scheme, err)
			}
			got, err := Count(data, IntEq(probe), opt)
			if err != nil {
				t.Fatalf("%s: %v", tc.scheme, err)
			}
			if want := countRefInt(col, probe); got != want {
				t.Errorf("%s: got %d, want %d (NULL rows leaked into the count)", tc.scheme, got, want)
			}
		}
	})

	t.Run("double", func(t *testing.T) {
		for _, tc := range []struct {
			scheme string
			pool   []Scheme
			mk     func(i int) float64
		}{
			{"uncompressed", []Scheme{}, func(i int) float64 { return rng.NormFloat64() }},
			{"onevalue", []Scheme{SchemeOneValue}, func(i int) float64 { return 2.5 }},
			{"rle", []Scheme{SchemeRLE}, func(i int) float64 { return float64(i / 500) }},
			{"dict", []Scheme{SchemeDict}, func(i int) float64 { return float64(rng.Intn(4)) + 0.5 }},
			{"frequency", []Scheme{SchemeFrequency}, func(i int) float64 {
				if rng.Float64() < 0.95 {
					return 99.99
				}
				return rng.NormFloat64()
			}},
			{"pde", []Scheme{SchemePDE}, func(i int) float64 { return float64(rng.Intn(50000)) / 100 }},
		} {
			values := make([]float64, n)
			for i := range values {
				values[i] = tc.mk(i)
			}
			probe := values[1]
			for i := 0; i < n; i += 3 {
				values[i] = probe
			}
			col := DoubleColumn("c", values)
			col.Nulls = nulls
			opt := &Options{DoubleSchemes: tc.pool}
			data, err := CompressColumn(col, opt)
			if err != nil {
				t.Fatalf("%s: %v", tc.scheme, err)
			}
			got, err := Count(data, DoubleEq(probe), opt)
			if err != nil {
				t.Fatalf("%s: %v", tc.scheme, err)
			}
			want := 0
			pb := math.Float64bits(probe)
			for i, x := range values {
				if math.Float64bits(x) == pb && !nulls.IsNull(i) {
					want++
				}
			}
			if got != want {
				t.Errorf("%s: got %d, want %d (NULL rows leaked into the count)", tc.scheme, got, want)
			}
		}
	})

	t.Run("string", func(t *testing.T) {
		for _, tc := range []struct {
			scheme string
			pool   []Scheme
			mk     func(i int) string
		}{
			{"uncompressed", []Scheme{}, func(i int) string { return fmt.Sprintf("row-%d", rng.Intn(1<<20)) }},
			{"onevalue", []Scheme{SchemeOneValue}, func(i int) string { return "CABLE" }},
			{"dict", []Scheme{SchemeDict}, func(i int) string {
				return []string{"PHOENIX", "RALEIGH", "ATHENS"}[rng.Intn(3)]
			}},
			{"fsst", []Scheme{SchemeFSST}, func(i int) string {
				return fmt.Sprintf("https://example.com/products/item-%d", rng.Intn(1000))
			}},
		} {
			values := make([]string, n)
			for i := range values {
				values[i] = tc.mk(i)
			}
			probe := values[1]
			for i := 0; i < n; i += 3 {
				values[i] = probe
			}
			col := StringColumn("c", values)
			col.Nulls = nulls
			opt := &Options{StringSchemes: tc.pool}
			data, err := CompressColumn(col, opt)
			if err != nil {
				t.Fatalf("%s: %v", tc.scheme, err)
			}
			got, err := Count(data, StringEq(probe), opt)
			if err != nil {
				t.Fatalf("%s: %v", tc.scheme, err)
			}
			want := 0
			for i, x := range values {
				if x == probe && !nulls.IsNull(i) {
					want++
				}
			}
			if got != want {
				t.Errorf("%s: got %d, want %d (NULL rows leaked into the count)", tc.scheme, got, want)
			}
		}
	})
}

// TestCountNullBlocksDecodeNothing: a NULL-bearing block is counted by
// running its kernel into a block-local bitmap and taking the NULLs out,
// never by decoding it. On each scheme with a compressed-domain path,
// Count reports no decoded stream and records no block decode.
func TestCountNullBlocksDecodeNothing(t *testing.T) {
	const n = 12000
	nulls := NewNullMask()
	for i := 1; i < n; i += 3 {
		nulls.SetNull(i) // no block leads with a NULL, which densifies to zero
	}
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct {
		scheme Scheme
		pool   []Scheme
		mk     func(i int) int32
	}{
		{SchemeOneValue, []Scheme{SchemeOneValue}, func(int) int32 { return 7 }},
		{SchemeRLE, []Scheme{SchemeRLE, SchemeFastBP}, func(i int) int32 { return int32(i / 500) }},
		{SchemeDict, []Scheme{SchemeDict, SchemeFastBP}, func(int) int32 { return int32(rng.Intn(5)) * 100000 }},
		{SchemeFrequency, []Scheme{SchemeFrequency, SchemeFastBP}, func(int) int32 {
			if rng.Float64() < 0.95 {
				return 7
			}
			return rng.Int31n(1 << 12)
		}},
		{SchemeFastBP, []Scheme{SchemeFastBP}, func(int) int32 { return int32(rng.Intn(1000)) }},
	} {
		values := make([]int32, n)
		for i := range values {
			values[i] = tc.mk(i)
		}
		col := IntColumn("c", values)
		col.Nulls = nulls
		opt := &Options{BlockSize: 3000, IntSchemes: tc.pool}
		data := mustCompressWith(t, col, opt)
		ix, err := ParseColumnIndex(data)
		if err != nil {
			t.Fatal(err)
		}
		for b, ref := range ix.Blocks {
			if ref.Scheme != tc.scheme || ref.NullBytes == 0 {
				t.Fatalf("%v: block %d is %v with %d NULL bytes", tc.scheme, b, ref.Scheme, ref.NullBytes)
			}
		}
		opt.Telemetry = NewTelemetry()
		probe := values[2]
		got, stats, err := ix.Count(data, IntEq(probe), opt)
		if want := countRefInt(col, probe); err != nil || got != want {
			t.Fatalf("%v: got %d/%v, want %d", tc.scheme, got, err, want)
		}
		if stats.Decoded != 0 {
			t.Errorf("%v: %d streams decoded, want 0 (stats %+v)", tc.scheme, stats.Decoded, stats)
		}
		if d := opt.Telemetry.Snapshot().DecodeBlocks; d != 0 {
			t.Errorf("%v: %d blocks decoded, want 0", tc.scheme, d)
		}
	}
}

// TestCountChecksNullBlockLengths: in a v1 file (no block CRC), a
// NULL-bearing block whose data stream is shorter than the index says —
// bytes the stream does not account for — or holds more rows than the
// index says is corrupt, for Count as for Select. The first is the file
// layer's ErrCorrupt, the second the stream decoder's.
func TestCountChecksNullBlockLengths(t *testing.T) {
	const n = 3000
	nulls := NewNullMask()
	for i := 0; i < n; i += 4 {
		nulls.SetNull(i)
	}
	ints := make([]int32, n)
	doubles := make([]float64, n)
	strs := make([]string, n)
	for i := range ints {
		ints[i] = int32(i % 7)
		doubles[i] = float64(i%5) / 2
		strs[i] = fmt.Sprintf("s%d", i%6)
	}
	int64s := make([]int64, n)
	for i, v := range ints {
		int64s[i] = int64(v) << 40
	}
	cols := []struct {
		col Column
		eq  Predicate
	}{
		{IntColumn("i", ints), IntEq(3)},
		{Int64Column("l", int64s), Int64Eq(3 << 40)},
		{DoubleColumn("d", doubles), DoubleEq(1)},
		{StringColumn("s", strs), StringEq("s3")},
	}
	for _, c := range cols {
		c.col.Nulls = nulls
		data := mustCompressWith(t, c.col, &Options{BlockSize: 1000, FormatVersion: 1})
		for _, damage := range []struct {
			name string
			edit func(data []byte, ref BlockRef) []byte
		}{
			{"trailing bytes", func(data []byte, ref BlockRef) []byte {
				out := append(append(append([]byte(nil), data[:ref.End()]...), 0, 0, 0), data[ref.End():]...)
				binary.LittleEndian.PutUint32(out[ref.DataOffset()-4:], uint32(ref.DataBytes+3))
				return out
			}},
			{"rows beyond the index", func(data []byte, ref BlockRef) []byte {
				out := append([]byte(nil), data...)
				binary.LittleEndian.PutUint32(out[ref.Offset:], uint32(ref.Rows-1))
				return out
			}},
		} {
			ix, err := ParseColumnIndex(data)
			if err != nil {
				t.Fatal(err)
			}
			bad := damage.edit(data, ix.Blocks[1])
			if ix, err = ParseColumnIndex(bad); err != nil {
				t.Fatalf("%v %s: the damaged file no longer parses: %v", c.col.Type, damage.name, err)
			}
			corrupt := func(err error) bool { return errors.Is(err, ErrCorrupt) || errors.Is(err, core.ErrCorrupt) }
			if _, _, err := ix.Select(bad, c.eq, nil); !corrupt(err) {
				t.Errorf("%v %s: Select err = %v, want corrupt", c.col.Type, damage.name, err)
			}
			if n, _, err := ix.Count(bad, c.eq, nil); !corrupt(err) {
				t.Errorf("%v %s: Count = %d, %v, want corrupt", c.col.Type, damage.name, n, err)
			}
		}
	}
}
