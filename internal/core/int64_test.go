package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTripInt64(t *testing.T, src []int64, cfg *Config) []byte {
	t.Helper()
	enc := Int64.Compress(nil, src, cfg)
	dec, used, err := Int64.Decompress(nil, enc, cfg)
	if err != nil {
		t.Fatalf("decompress (%s): %v", Code(enc[0]), err)
	}
	if used != len(enc) || len(dec) != len(src) {
		t.Fatalf("shape mismatch (%s): used %d/%d, n %d/%d",
			Code(enc[0]), used, len(enc), len(dec), len(src))
	}
	for i := range src {
		if dec[i] != src[i] {
			t.Fatalf("value %d = %d, want %d (%s)", i, dec[i], src[i], Code(enc[0]))
		}
	}
	return enc
}

func TestInt64OneValue(t *testing.T) {
	cfg := DefaultConfig()
	src := make([]int64, 64000)
	for i := range src {
		src[i] = math.MaxInt64 - 12345
	}
	enc := roundTripInt64(t, src, cfg)
	if Code(enc[0]) != CodeOneValue {
		t.Fatalf("scheme = %s", Code(enc[0]))
	}
}

func TestInt64TimestampsChooseFOR(t *testing.T) {
	// Microsecond timestamps over one hour: huge absolute values, narrow
	// range — exactly what FOR+bit-packing solves and int32 cannot hold.
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	base := int64(1_700_000_000_000_000)
	src := make([]int64, 64000)
	for i := range src {
		src[i] = base + int64(rng.Intn(3_600_000_000))
	}
	enc := roundTripInt64(t, src, cfg)
	if Code(enc[0]) != CodeFastBP {
		t.Fatalf("scheme = %s, want FastBP on timestamps", Code(enc[0]))
	}
	if ratio := float64(len(src)*8) / float64(len(enc)); ratio < 1.8 {
		t.Fatalf("timestamp ratio only %.2f", ratio)
	}
}

func TestInt64RunsAndDict(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(2))
	src := make([]int64, 0, 64000)
	for len(src) < 64000 {
		v := int64(rng.Intn(30)) * 1_000_000_007
		for k := 0; k < 20+rng.Intn(100) && len(src) < 64000; k++ {
			src = append(src, v)
		}
	}
	enc := roundTripInt64(t, src, cfg)
	if got := Code(enc[0]); got != CodeRLE && got != CodeDict {
		t.Fatalf("scheme = %s, want RLE/Dict", got)
	}
	if ratio := float64(len(src)*8) / float64(len(enc)); ratio < 20 {
		t.Fatalf("run data compressed only %.1fx", ratio)
	}
}

func TestInt64FrequencyForced(t *testing.T) {
	cfg := &Config{IntSchemes: []Code{CodeFrequency}}
	rng := rand.New(rand.NewSource(3))
	src := make([]int64, 30000)
	for i := range src {
		if rng.Float64() < 0.9 {
			src[i] = -42
		} else {
			src[i] = rng.Int63()
		}
	}
	enc := roundTripInt64(t, src, cfg)
	if Code(enc[0]) != CodeFrequency {
		t.Fatalf("scheme = %s", Code(enc[0]))
	}
}

func TestInt64EdgeValues(t *testing.T) {
	cfg := DefaultConfig()
	roundTripInt64(t, nil, cfg)
	roundTripInt64(t, []int64{0}, cfg)
	roundTripInt64(t, []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}, cfg)
}

func TestInt64ScalarMatchesOptimized(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := make([]int64, 0, 30000)
	for len(src) < 30000 {
		v := rng.Int63()
		for k := 0; k < 1+rng.Intn(60) && len(src) < 30000; k++ {
			src = append(src, v)
		}
	}
	enc := Int64.Compress(nil, src, DefaultConfig())
	fast, _, err := Int64.Decompress(nil, enc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scalar, _, err := Int64.Decompress(nil, enc, &Config{ScalarDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if fast[i] != src[i] || scalar[i] != src[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestInt64Truncation(t *testing.T) {
	cfg := DefaultConfig()
	src := make([]int64, 5000)
	for i := range src {
		src[i] = int64(i % 50)
	}
	enc := Int64.Compress(nil, src, cfg)
	for cut := 0; cut < len(enc); cut += 5 {
		dec, used, err := Int64.Decompress(nil, enc[:cut], cfg)
		if err == nil && used == len(enc) {
			t.Fatalf("truncation at %d: decoded %d values silently", cut, len(dec))
		}
	}
}

func TestInt64Quick(t *testing.T) {
	cfg := DefaultConfig()
	f := func(src []int64) bool {
		enc := Int64.Compress(nil, src, cfg)
		dec, used, err := Int64.Decompress(nil, enc, cfg)
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

func TestInt64CountEqual(t *testing.T) {
	cfg := DefaultConfig()
	src := []int64{5, 5, 5, 1 << 40, 5, 5, -9}
	for _, code := range []Code{CodeRLE, CodeFrequency} {
		restricted := &Config{IntSchemes: []Code{code}}
		enc := Int64.Compress(nil, src, restricted)
		count, used, err := Int64.Count(enc, Eq[int64](5), nil, cfg)
		if err != nil || used != len(enc) || count != 5 {
			t.Fatalf("%s: count = %d (err %v)", code, count, err)
		}
		if count, _, _ := Int64.Count(enc, Eq[int64](1<<40), nil, cfg); count != 1 {
			t.Fatalf("%s: outlier count = %d", code, count)
		}
		if count, _, _ := Int64.Count(enc, Eq[int64](12345), nil, cfg); count != 0 {
			t.Fatalf("%s: absent count = %d", code, count)
		}
	}
	// dict path
	dsrc := make([]int64, 1000)
	for i := range dsrc {
		dsrc[i] = int64(i%7) * 1e15
	}
	enc := Int64.Compress(nil, dsrc, &Config{IntSchemes: []Code{CodeDict}})
	if count, _, err := Int64.Count(enc, Eq[int64](2e15), nil, cfg); err != nil || count != 143 {
		t.Fatalf("dict count = %d (err %v)", count, err)
	}
}
