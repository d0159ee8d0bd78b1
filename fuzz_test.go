package btrblocks

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"btrblocks/coldata"
	"btrblocks/internal/core"
)

// Native fuzz targets. `go test` runs them on the seed corpus; run
// `go test -fuzz=FuzzDecompressColumn` (etc.) for continuous fuzzing.

func FuzzDecompressColumn(f *testing.F) {
	opt := DefaultOptions()
	seed1, _ := CompressColumn(IntColumn("i", []int32{1, 1, 2, 3, 3, 3}), opt)
	seed2, _ := CompressColumn(DoubleColumn("d", []float64{3.25, 0.99, math.NaN()}), opt)
	seed3, _ := CompressColumn(StringColumn("s", []string{"a", "bb", "a", "bb", "ccc"}), opt)
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// must never panic; errors are fine
		_, _ = DecompressColumn(data, opt)
		_, _, _ = DecompressStringViews(data, opt)
		_, _ = Count(data, IntEq(1), opt)
		_, _ = Count(data, DoubleEq(0.99), opt)
		_, _ = Count(data, StringEq("a"), opt)
	})
}

func FuzzDecompressIntStream(f *testing.F) {
	cfg := core.DefaultConfig()
	f.Add(core.Int.Compress(nil, []int32{5, 5, 5, 900, -1}, cfg))
	f.Add(core.Int.Compress(nil, make([]int32, 1000), cfg))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = core.Int.Decompress(nil, data, cfg)
	})
}

func FuzzDecompressStringStream(f *testing.F) {
	cfg := core.DefaultConfig()
	f.Add(core.CompressString(nil, coldata.MakeStrings([]string{"x", "x", "yz"}), cfg))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = core.DecompressString(data, cfg)
	})
}

func FuzzCompressIntRoundTrip(f *testing.F) {
	cfg := core.DefaultConfig()
	f.Add([]byte{1, 2, 3, 4, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		src := make([]int32, len(raw)/4)
		for i := range src {
			src[i] = int32(raw[4*i]) | int32(raw[4*i+1])<<8 | int32(raw[4*i+2])<<16 | int32(raw[4*i+3])<<24
		}
		enc := core.Int.Compress(nil, src, cfg)
		dec, used, err := core.Int.Decompress(nil, enc, cfg)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if used != len(enc) || len(dec) != len(src) {
			t.Fatalf("shape mismatch: used %d/%d, n %d/%d", used, len(enc), len(dec), len(src))
		}
		for i := range src {
			if dec[i] != src[i] {
				t.Fatalf("value %d mismatch", i)
			}
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpora under
// testdata/fuzz/ when WRITE_FUZZ_CORPUS=1 is set. The corpora give the
// fuzzers structurally valid starting points (both format versions,
// every column type, damaged and truncated variants) so short CI fuzz
// budgets spend their time mutating deep states instead of rediscovering
// the magic bytes. Without the env var this test is a no-op, so plain
// `go test` never rewrites testdata.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz seed corpora")
	}
	write := func(target, name string, data []byte) {
		t.Helper()
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt := func(data []byte, off int) []byte {
		bad := append([]byte(nil), data...)
		bad[off%len(bad)] ^= 0xA5
		return bad
	}

	v2 := DefaultOptions()
	v2.BlockSize = 2000
	v1 := DefaultOptions()
	v1.BlockSize = 2000
	v1.FormatVersion = 1

	cols := chaosColumns(5000, 7)
	for _, col := range cols {
		d2, err := CompressColumn(col, v2)
		if err != nil {
			t.Fatal(err)
		}
		d1, err := CompressColumn(col, v1)
		if err != nil {
			t.Fatal(err)
		}
		write("FuzzDecompressColumn", "v2_"+col.Name, d2)
		write("FuzzDecompressColumn", "v1_"+col.Name, d1)
		write("FuzzDecompressColumn", "v2_"+col.Name+"_flip", corrupt(d2, len(d2)/2))
		write("FuzzDecompressColumn", "v2_"+col.Name+"_trunc", d2[:len(d2)*3/4])
	}

	cfg := core.DefaultConfig()
	write("FuzzDecompressIntStream", "rle", core.Int.Compress(nil, []int32{5, 5, 5, 5, 900, -1, -1}, cfg))
	write("FuzzDecompressIntStream", "zeros", core.Int.Compress(nil, make([]int32, 4000), cfg))
	ramp := make([]int32, 3000)
	for i := range ramp {
		ramp[i] = int32(i * 3)
	}
	write("FuzzDecompressIntStream", "ramp", core.Int.Compress(nil, ramp, cfg))
	write("FuzzDecompressStringStream", "dict",
		core.CompressString(nil, coldata.MakeStrings([]string{"x", "x", "yz", "x", "longer-value", "yz"}), cfg))
	write("FuzzCompressIntRoundTrip", "mixed", []byte{1, 2, 3, 4, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F})

	streamFor := func(opt *Options) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, []Column{
			{Name: "i", Type: TypeInt}, {Name: "d", Type: TypeDouble},
		}, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := w.WriteChunk(&Chunk{Columns: []Column{cols[0], cols[2]}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	s2 := streamFor(v2)
	write("FuzzStreamReader", "v2_stream", s2)
	write("FuzzStreamReader", "v1_stream", streamFor(v1))
	write("FuzzStreamReader", "v2_stream_flip", corrupt(s2, len(s2)/3))
	write("FuzzStreamReader", "v2_stream_trunc", s2[:len(s2)/2])
}

func FuzzStreamReader(f *testing.F) {
	opt := DefaultOptions()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []Column{{Name: "id", Type: TypeInt}}, opt)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.WriteChunk(&Chunk{Columns: []Column{IntColumn("id", []int32{1, 2, 2})}}); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data), opt)
		if err != nil {
			return
		}
		for i := 0; i < 100; i++ {
			if _, err := r.Next(); err != nil {
				return
			}
		}
	})
}
