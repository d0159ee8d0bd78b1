package btrblocks

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
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
		// A column file caps each block's decode at the rows its index
		// declares, so the bound is charged to those rows, or to
		// fuzzDecodeCap as for a stream when it declares fewer (a fresh
		// scratch arena is a fixed cost); a materialized string column may
		// allocate the bytes it returns on top.
		ix, err := ParseColumnIndex(data)
		if err != nil {
			return
		}
		rows, width := max(ix.Rows, fuzzDecodeCap), 8
		if ix.Type == TypeInt {
			width = 4
		}
		checkAllocs(t, rows, width, len(data), func() int {
			col, _ := DecompressColumn(data, opt)
			return len(col.Strings.Data)
		})
		checkAllocs(t, rows, 8, len(data), func() int {
			_, _, _ = DecompressStringViews(data, opt)
			return 0
		})
	})
}

func FuzzDecompressIntStream(f *testing.F) {
	cfg := core.DefaultConfig()
	f.Add(core.Int.Compress(nil, []int32{5, 5, 5, 900, -1}, cfg))
	f.Add(core.Int.Compress(nil, make([]int32, 1000), cfg))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = core.Int.Decompress(nil, data, cfg)
		checkAllocBound(t, data, 4, func(capped *core.Config) { _, _, _ = core.Int.Decompress(nil, data, capped) })
	})
}

func FuzzDecompressStringStream(f *testing.F) {
	cfg := core.DefaultConfig()
	f.Add(core.String.Compress(nil, coldata.MakeStrings([]string{"x", "x", "yz"}), cfg))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = core.String.Decompress(data, cfg)
		// A row decodes to one 8-byte view.
		checkAllocBound(t, data, 8, func(capped *core.Config) { _, _, _ = core.String.Decompress(data, capped) })
	})
}

// The decode cap bounds what a stream can make its decoder allocate: under
// MaxDecodedValues = fuzzDecodeCap, decoding data allocates at most
// fuzzAllocMultiple × (fuzzDecodeCap × value width + len(data)) bytes,
// whatever its headers claim. The multiple leaves room for a cascade's
// sub-streams, each of which may hold up to the cap, for append growth and
// for pools that decode to at most 8 bytes per input byte (FSST). It is a
// bound per cascade level: a stream nested deeper than the compressor
// writes pays it once per level.
const (
	fuzzDecodeCap     = 1000
	fuzzAllocMultiple = 64
)

// checkAllocBound runs decode once under the cap and fails t if it
// allocated more than the bound allows.
func checkAllocBound(t *testing.T, data []byte, width int, decode func(capped *core.Config)) {
	t.Helper()
	capped := &core.Config{MaxDecodedValues: fuzzDecodeCap}
	checkAllocs(t, fuzzDecodeCap, width, len(data), func() int { decode(capped); return 0 })
}

// checkAllocs runs decode once and fails t if it allocated more than
// fuzzAllocMultiple × (values × width + inputBytes) bytes plus the
// output bytes decode reports beyond its values' width.
func checkAllocs(t *testing.T, values, width, inputBytes int, decode func() (outputBytes int)) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := decode()
	runtime.ReadMemStats(&after)
	bound := fuzzAllocMultiple*(values*width+inputBytes) + out
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(bound) {
		t.Fatalf("decoding %d bytes capped at %d values allocated %d bytes, bound %d", inputBytes, values, got, bound)
	}
}

// FuzzAggregateSelected folds hostile streams under a selection: the
// first byte picks the type (int32, int64, double), the rest is the
// stream. No panic, and the fold under the cap allocates within the
// decode bound. Seeds: one stream per scheme of each type, so the
// selected reads of FastBP, Pseudodecimal, Dict, RLE, Frequency and
// OneValue all start from a valid stream.
func FuzzAggregateSelected(f *testing.F) {
	cfg := core.DefaultConfig()
	ints := make([]int32, 700)
	doubles := make([]float64, 700)
	for i := range ints {
		ints[i] = int32(i*7919%1000) * []int32{1, 1, 0, 1000}[i/175] // a run of zeros, then outliers
		doubles[i] = float64(i*7919%4000) / 4
	}
	doubles[13], doubles[99] = math.NaN(), math.Copysign(0, -1) // patches
	ints64 := make([]int64, len(ints))
	for i, v := range ints {
		ints64[i] = int64(v) << 20
	}
	for _, code := range core.Int.Schemes() {
		if enc := core.Int.CompressAs(nil, ints, code, cfg); enc != nil {
			f.Add(append([]byte{0}, enc...))
		}
	}
	for _, code := range core.Int64.Schemes() {
		if enc := core.Int64.CompressAs(nil, ints64, code, cfg); enc != nil {
			f.Add(append([]byte{1}, enc...))
		}
	}
	for _, code := range core.Double.Schemes() {
		if enc := core.Double.CompressAs(nil, doubles, code, cfg); enc != nil {
			f.Add(append([]byte{2}, enc...))
		}
	}
	// Rows 0-999 in a pattern of runs and gaps, over the whole cap.
	sel := make([]uint64, (fuzzDecodeCap+63)/64)
	for i := range sel {
		sel[i] = 0xf0f0_0000_ffff_0137 >> (i % 7)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kind, stream := data[0]%3, data[1:]
		fold := func(capped *core.Config) {
			switch kind {
			case 0:
				var g core.Agg[int32]
				_, _ = core.Int.Aggregate(stream, sel, &g, nil, capped)
			case 1:
				var g core.Agg[int64]
				_, _ = core.Int64.Aggregate(stream, sel, &g, nil, capped)
			default:
				var g core.DoubleAgg
				_, _ = core.Double.Aggregate(stream, sel, &g, nil, capped)
			}
		}
		fold(cfg)
		checkAllocBound(t, stream, 8, fold)
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
	// A FastBP header claiming 2,136 blocks of values in a 2,145-byte
	// stream: the widths are all there, the last block's packed words are
	// not. Over the decode cap, it must be rejected before the output is
	// allocated.
	overCap := make([]byte, 2145)
	overCap[0] = byte(core.CodeFastBP)
	binary.LittleEndian.PutUint32(overCap[1:], 2136*128)
	overCap[len(overCap)-1] = 1
	write("FuzzDecompressIntStream", "fastbp_over_cap", overCap)
	write("FuzzDecompressStringStream", "dict",
		core.String.Compress(nil, coldata.MakeStrings([]string{"x", "x", "yz", "x", "longer-value", "yz"}), cfg))
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
	// A header claiming 65,535 columns in a 7-byte stream: the schema must
	// not be allocated before its entries arrive.
	write("FuzzStreamReader", "v2_wide_header", []byte("BTRS\x02\xff\xff"))
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
	// 2,000 schema entries with empty names: collecting them must stay
	// within the allocation bound too.
	wide := binary.LittleEndian.AppendUint16([]byte("BTRS\x01"), 2000)
	f.Add(append(wide, make([]byte, 3*2000)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStreamHeaderAllocBound(t, data)
		if kind, ok := SniffKind(data); !ok || kind != FileKindStream {
			if readToEOF(data, opt) == nil {
				t.Fatal("Reader read a file that is not a stream")
			}
			return
		}
		// An io.Reader consumer cannot see bytes after a stream's final
		// checksum; the other entry points reject them. They are left out
		// of the agreement below.
		if s, err := newStreamScanner(bytes.NewReader(data)); err == nil {
			for err == nil {
				_, err = s.next()
			}
			if err == io.EOF {
				data = data[:s.off]
			}
		}
		readOK := readToEOF(data, opt) == nil
		if verifyOK := Verify(data, &VerifyOptions{Deep: true}).OK; verifyOK != readOK {
			t.Fatalf("Verify OK %v, Reader reached io.EOF %v", verifyOK, readOK)
		}
		if _, err := Inspect(data); err != nil && readOK {
			t.Fatalf("Inspect rejects a stream the Reader reads: %v", err)
		}
		_, err := NewAppendWriter(&memFile{data: append([]byte(nil), data...)}, nil)
		if err != nil && !errors.Is(err, ErrAppendVersion) && readOK {
			t.Fatalf("NewAppendWriter rejects a stream the Reader reads: %v", err)
		}
	})
}

// checkStreamHeaderAllocBound fails t if NewReader — the header and
// schema parse — allocated more than 64 KiB, which covers the 4 KiB read
// buffer, plus fuzzAllocMultiple bytes per input byte, whatever column
// count the header claims.
func checkStreamHeaderAllocBound(t *testing.T, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _ = NewReader(bytes.NewReader(data), &Options{Parallelism: 1})
	runtime.ReadMemStats(&after)
	bound := 64<<10 + fuzzAllocMultiple*len(data)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(bound) {
		t.Fatalf("NewReader on %d bytes allocated %d bytes, bound %d", len(data), got, bound)
	}
}
