// Benchmarks of the library's layers: per-scheme decode and compress,
// selection kernels, whole-column and whole-chunk decode, the §6.4
// parallel curves and the cost of telemetry and span tracing. The
// BENCH_*.json trajectories are recorded from them (cmd/benchtraj); the
// paper's tables and figures are regenerated by cmd/btrbench.
package btrblocks_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"btrblocks"
	"btrblocks/coldata"
	"btrblocks/internal/core"
	"btrblocks/internal/obs"
	"btrblocks/internal/pbi"
)

const benchRows = 16000

var (
	corpusOnce sync.Once
	pbiCorpus  []pbi.Dataset
)

// corpus is the PBI corpus behind the parallel decode and scan rows of
// BENCH_decode.json, generated once per test binary.
func corpus() []pbi.Dataset {
	corpusOnce.Do(func() { pbiCorpus = pbi.Corpus(benchRows, 42) })
	return pbiCorpus
}

// --- core compression path, as a plain throughput benchmark ---

func BenchmarkCompressInt64kBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	src := make([]int32, 64000)
	for i := range src {
		src[i] = int32(rng.Intn(1000))
	}
	cfg := core.DefaultConfig()
	b.SetBytes(int64(len(src) * 4))
	for i := 0; i < b.N; i++ {
		core.Int.Compress(nil, src, cfg)
	}
}

// --- design-choice ablation: fused Dict+RLE decompression (§5) ---

func BenchmarkFusedDictRLE_Ablation(b *testing.B) {
	// long runs of few strings: the fused path's best case
	rng := rand.New(rand.NewSource(11))
	vals := []string{"01 BRONX", "04 BRONX", "03 QUEENS", "STATEN ISLAND"}
	strs := make([]string, 64000)
	i := 0
	for i < len(strs) {
		v := vals[rng.Intn(len(vals))]
		for k := 0; k < 20+rng.Intn(120) && i < len(strs); k++ {
			strs[i] = v
			i++
		}
	}
	col := btrblocks.StringColumn("board", strs)
	data, err := btrblocks.CompressColumn(col, btrblocks.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, cfgp := range []struct {
		name string
		opt  *btrblocks.Options
	}{
		{"fused", btrblocks.DefaultOptions()},
		{"unfused", &btrblocks.Options{DisableFuseDictRLE: true}},
	} {
		cfgp := cfgp
		b.Run(cfgp.name, func(b *testing.B) {
			b.SetBytes(int64(col.UncompressedBytes()))
			for i := 0; i < b.N; i++ {
				if _, _, err := btrblocks.DecompressStringViews(data, cfgp.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- design-choice ablation: compressed-data predicate vs decode-and-filter ---

func BenchmarkCountEqual_Ablation(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	strs := make([]string, 64000)
	vals := []string{"SHIPPED", "PENDING", "RETURNED"}
	i := 0
	for i < len(strs) {
		v := vals[rng.Intn(len(vals))]
		for k := 0; k < 30+rng.Intn(90) && i < len(strs); k++ {
			strs[i] = v
			i++
		}
	}
	col := btrblocks.StringColumn("status", strs)
	opt := btrblocks.DefaultOptions()
	data, err := btrblocks.CompressColumn(col, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compressed-count", func(b *testing.B) {
		b.SetBytes(int64(col.UncompressedBytes()))
		for i := 0; i < b.N; i++ {
			if _, err := btrblocks.Count(data, btrblocks.StringEq("SHIPPED"), opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	// What Count's bitmap-free mode saves: the same kernel run into a
	// selection that is then only counted.
	b.Run("select-cardinality", func(b *testing.B) {
		ix, err := btrblocks.ParseColumnIndex(data)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(col.UncompressedBytes()))
		for i := 0; i < b.N; i++ {
			sel, _, err := ix.Select(data, btrblocks.StringEq("SHIPPED"), opt)
			if err != nil {
				b.Fatal(err)
			}
			_ = sel.Cardinality()
		}
	})
	b.Run("decode-and-filter", func(b *testing.B) {
		b.SetBytes(int64(col.UncompressedBytes()))
		for i := 0; i < b.N; i++ {
			got, err := btrblocks.DecompressColumn(data, opt)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for j := 0; j < got.Len(); j++ {
				if got.Strings.At(j) == "SHIPPED" {
					n++
				}
			}
			_ = n
		}
	})
}

// --- §6.4: parallel decode engine ---

// BenchmarkDecompressParallel measures whole-chunk decompression at
// 1/2/4/8 workers — the §6.4 scaling curve at benchmark scale. On an
// N-core host the workers>1 runs show the parallel decode engine's
// speedup; throughput is the uncompressed bytes produced per second.
func BenchmarkDecompressParallel(b *testing.B) {
	pbiC := corpus()
	type cchunk struct {
		cc  *btrblocks.CompressedChunk
		unc int
	}
	var chunks []cchunk
	total := 0
	for _, ds := range pbiC {
		chunk := ds.Chunk
		cc, err := btrblocks.CompressChunk(&chunk, nil)
		if err != nil {
			b.Fatal(err)
		}
		unc := ds.Chunk.UncompressedBytes()
		chunks = append(chunks, cchunk{cc, unc})
		total += unc
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := &btrblocks.Options{Parallelism: workers}
			b.SetBytes(int64(total))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range chunks {
					if _, err := btrblocks.DecompressChunk(c.cc, opt); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkScanParallel measures compressed-predicate scans over every
// integer column of the corpus at 1/2/4/8 workers (per-block predicate
// evaluation with ordered count merge). The columns are four default-size
// blocks long: with one block per column a scan has nothing to hand a
// second worker, and the curve shows only what the pool costs.
func BenchmarkScanParallel(b *testing.B) {
	pbiC := pbi.Largest5(4*btrblocks.DefaultBlockSize, 42)
	type icol struct {
		data []byte
		unc  int
	}
	var cols []icol
	total := 0
	for _, ds := range pbiC {
		for _, col := range ds.Chunk.Columns {
			if col.Type != btrblocks.TypeInt {
				continue
			}
			data, err := btrblocks.CompressColumn(col, nil)
			if err != nil {
				b.Fatal(err)
			}
			unc := col.UncompressedBytes()
			cols = append(cols, icol{data, unc})
			total += unc
		}
	}
	if len(cols) == 0 {
		b.Skip("corpus has no integer columns")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := &btrblocks.Options{Parallelism: workers}
			b.SetBytes(int64(total))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range cols {
					if _, err := btrblocks.Count(c.data, btrblocks.IntEq(7), opt); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkDecompressColumn measures DecompressColumn — index, CRCs,
// cascade, NULL mask and the assembly of the decoded vector — on one
// worker, per column type and at one and four default-size blocks.
// B/op is the point as much as MB/s: a decode that writes each value once
// allocates little more than the SetBytes figure.
func BenchmarkDecompressColumn(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	kinds := []struct {
		name string
		gen  func(rows int) btrblocks.Column
	}{
		{"int", func(rows int) btrblocks.Column {
			v := make([]int32, rows)
			for i := range v {
				v[i] = int32(20000 + rng.Intn(5000))
			}
			return btrblocks.IntColumn("i", v)
		}},
		{"double", func(rows int) btrblocks.Column {
			v := make([]float64, rows)
			for i := range v {
				v[i] = float64(rng.Intn(1_000_000)) / 100
			}
			return btrblocks.DoubleColumn("d", v)
		}},
		{"string-fsst", func(rows int) btrblocks.Column {
			v := make([]string, rows)
			for i := range v {
				v[i] = fmt.Sprintf("https://example.com/products/%d/reviews?page=%d", rng.Intn(1e6), rng.Intn(50))
			}
			return btrblocks.StringColumn("s", v)
		}},
		{"string-dict", func(rows int) btrblocks.Column {
			v := make([]string, rows)
			for i := range v {
				v[i] = fmt.Sprintf("district-%03d-of-the-city", rng.Intn(200))
			}
			return btrblocks.StringColumn("s", v)
		}},
	}
	opt := &btrblocks.Options{Parallelism: 1}
	for _, k := range kinds {
		for _, blocks := range []int{1, 4} {
			col := k.gen(blocks * btrblocks.DefaultBlockSize)
			data, err := btrblocks.CompressColumn(col, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/blocks=%d", k.name, blocks), func(b *testing.B) {
				b.SetBytes(int64(col.UncompressedBytes()))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := btrblocks.DecompressColumn(data, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Telemetry overhead ---

// BenchmarkTelemetryOverhead compares block compression with telemetry
// disabled (nil recorder — the default), enabled, and against the
// baseline; "off" must stay within noise (~2%) of the baseline. The
// decode rows price span tracing on the decode path: the same column
// decoded with no span in the context and with every decode traced.
func BenchmarkTelemetryOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]int32, 64000)
	for i := range vals {
		vals[i] = int32(rng.Intn(1 << 14))
	}
	col := btrblocks.IntColumn("v", vals)
	run := func(b *testing.B, opt *btrblocks.Options) {
		b.SetBytes(int64(col.UncompressedBytes()))
		for i := 0; i < b.N; i++ {
			if _, err := btrblocks.CompressColumn(col, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, btrblocks.DefaultOptions()) })
	b.Run("on", func(b *testing.B) {
		rec := btrblocks.NewTelemetry()
		run(b, &btrblocks.Options{Telemetry: rec})
	})

	data, err := btrblocks.CompressColumn(col, nil)
	if err != nil {
		b.Fatal(err)
	}
	decode := func(b *testing.B, spans *obs.SpanRecorder) {
		b.SetBytes(int64(col.UncompressedBytes()))
		for i := 0; i < b.N; i++ {
			ctx, root := spans.StartRoot(context.Background(), "bench.decode")
			if _, err := btrblocks.DecompressColumnContext(ctx, data, nil); err != nil {
				b.Fatal(err)
			}
			root.End()
		}
	}
	b.Run("decode/spans-off", func(b *testing.B) { decode(b, nil) })
	b.Run("decode/spans-always", func(b *testing.B) {
		decode(b, obs.NewSpanRecorder(obs.SpanRecorderConfig{SampleEvery: 1}))
	})
}

// --- Per-scheme decode baseline (BENCH_decode.json feedstock) ---

// baselineIntData returns a 64k-value int column tailored so the forced
// scheme is genuinely exercised (runs for RLE, few distinct values for
// Dict, one dominant value for Frequency, narrow range for FastBP, narrow
// range plus outliers for FastPFOR).
func baselineIntData(code core.Code) []int32 {
	rng := rand.New(rand.NewSource(17))
	vals := make([]int32, 64000)
	switch code {
	case core.CodeRLE:
		v := int32(0)
		for i := range vals {
			if rng.Intn(40) == 0 {
				v = int32(rng.Intn(1000))
			}
			vals[i] = v
		}
	case core.CodeDict:
		for i := range vals {
			vals[i] = int32(rng.Intn(64)) * 1000003
		}
	case core.CodeFrequency:
		for i := range vals {
			if rng.Intn(20) == 0 {
				vals[i] = int32(rng.Intn(1 << 20))
			} else {
				vals[i] = 7777
			}
		}
	case core.CodeFastPFOR:
		for i := range vals {
			vals[i] = int32(rng.Intn(1 << 10))
			if rng.Intn(100) == 0 {
				vals[i] = int32(rng.Intn(1 << 28))
			}
		}
	default: // FastBP and friends: dense narrow range
		for i := range vals {
			vals[i] = int32(rng.Intn(1 << 12))
		}
	}
	return vals
}

// baselineDoubleData is baselineIntData for doubles: runs for RLE, few
// distinct values for Dict, two-decimal prices for Pseudodecimal.
func baselineDoubleData(code core.Code) []float64 {
	rng := rand.New(rand.NewSource(18))
	vals := make([]float64, 64000)
	switch code {
	case core.CodeRLE:
		v := 0.0
		for i := range vals {
			if rng.Intn(40) == 0 {
				v = float64(rng.Intn(1000)) / 100
			}
			vals[i] = v
		}
	case core.CodeDict:
		for i := range vals {
			vals[i] = float64(rng.Intn(64)) * 1.5
		}
	default: // PDE: two-decimal prices
		for i := range vals {
			vals[i] = float64(rng.Intn(100000)) / 100
		}
	}
	return vals
}

// baselineStringData is baselineIntData for strings: a handful of city
// names for Dict, near-unique URLs for FSST.
func baselineStringData(code core.Code) coldata.Strings {
	rng := rand.New(rand.NewSource(19))
	vals := make([]string, 16000)
	if code == core.CodeDict {
		cities := []string{"New York", "Los Angeles", "Chicago", "Houston", "Phoenix", "Philadelphia", "San Antonio", "Dallas"}
		for i := range vals {
			vals[i] = cities[rng.Intn(len(cities))]
		}
	} else {
		for i := range vals {
			vals[i] = fmt.Sprintf("http://api.host.internal/v2/users/%d/orders?page=%d", rng.Intn(4000), rng.Intn(9))
		}
	}
	return coldata.MakeStrings(vals)
}

// baselineInt64Data widens baselineIntData to 64-bit keys.
func baselineInt64Data(code core.Code) []int64 {
	base := baselineIntData(code)
	vals := make([]int64, len(base))
	for i, v := range base {
		vals[i] = int64(v) * 1000
	}
	return vals
}

// BenchmarkDecodeBaseline is the per-scheme, per-type single-core decode
// grid recorded in BENCH_decode.json: each sub-benchmark forces one root
// scheme onto data suited to it and measures decode throughput of the
// full cascade (MB/s of decoded output). `make bench-baseline` runs this
// plus the per-kernel microbenchmarks and snapshots the result;
// `make bench-compare` fails CI tier 2 on >10% regression.
func BenchmarkDecodeBaseline(b *testing.B) {
	cfg := core.DefaultConfig()

	for _, code := range []core.Code{core.CodeRLE, core.CodeDict, core.CodeFrequency, core.CodeFastBP, core.CodeFastPFOR} {
		vals := baselineIntData(code)
		enc := core.Int.CompressAs(nil, vals, code, cfg)
		if enc == nil {
			b.Fatalf("int/%v: scheme not applicable to its benchmark data", code)
		}
		if got := core.Code(enc[0]); got != code {
			b.Fatalf("int/%v: stream root is %v", code, got)
		}
		b.Run(fmt.Sprintf("int/%v", code), func(b *testing.B) {
			out := make([]int32, 0, len(vals))
			b.SetBytes(int64(len(vals) * 4))
			for i := 0; i < b.N; i++ {
				var err error
				if out, _, err = core.Int.Decompress(out[:0], enc, cfg); err != nil {
					b.Fatal(err)
				}
			}
			if len(out) != len(vals) {
				b.Fatalf("decoded %d values, want %d", len(out), len(vals))
			}
		})
	}

	for _, code := range []core.Code{core.CodeRLE, core.CodeDict, core.CodeFastBP} {
		vals := baselineInt64Data(code)
		c := *cfg
		c.IntSchemes = []core.Code{code}
		enc := core.Int64.Compress(nil, vals, &c)
		if got := core.Code(enc[0]); got != code {
			b.Fatalf("int64/%v: stream root is %v", code, got)
		}
		b.Run(fmt.Sprintf("int64/%v", code), func(b *testing.B) {
			out := make([]int64, 0, len(vals))
			b.SetBytes(int64(len(vals) * 8))
			for i := 0; i < b.N; i++ {
				var err error
				if out, _, err = core.Int64.Decompress(out[:0], enc, cfg); err != nil {
					b.Fatal(err)
				}
			}
			if len(out) != len(vals) {
				b.Fatalf("decoded %d values, want %d", len(out), len(vals))
			}
		})
	}

	for _, code := range []core.Code{core.CodeRLE, core.CodeDict, core.CodePDE} {
		vals := baselineDoubleData(code)
		enc := core.Double.CompressAs(nil, vals, code, cfg)
		if enc == nil {
			b.Fatalf("double/%v: scheme not applicable to its benchmark data", code)
		}
		if got := core.Code(enc[0]); got != code {
			b.Fatalf("double/%v: stream root is %v", code, got)
		}
		b.Run(fmt.Sprintf("double/%v", code), func(b *testing.B) {
			out := make([]float64, 0, len(vals))
			b.SetBytes(int64(len(vals) * 8))
			for i := 0; i < b.N; i++ {
				var err error
				if out, _, err = core.Double.Decompress(out[:0], enc, cfg); err != nil {
					b.Fatal(err)
				}
			}
			if len(out) != len(vals) {
				b.Fatalf("decoded %d values, want %d", len(out), len(vals))
			}
		})
	}

	for _, code := range []core.Code{core.CodeDict, core.CodeFSST} {
		vals := baselineStringData(code)
		enc := core.String.CompressAs(nil, vals, code, cfg)
		if enc == nil {
			b.Fatalf("string/%v: scheme not applicable to its benchmark data", code)
		}
		if got := core.Code(enc[0]); got != code {
			b.Fatalf("string/%v: stream root is %v", code, got)
		}
		raw := len(vals.Data) + 4*vals.Len()
		b.Run(fmt.Sprintf("string/%v", code), func(b *testing.B) {
			b.SetBytes(int64(raw))
			for i := 0; i < b.N; i++ {
				views, _, err := core.String.Decompress(enc, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if views.Len() != vals.Len() {
					b.Fatalf("decoded %d values, want %d", views.Len(), vals.Len())
				}
			}
		})
	}
}

// compressSink keeps the compiler from discarding the measured call.
var compressSink []byte

// BenchmarkCompressBaseline is the write-side twin of
// BenchmarkDecodeBaseline, recorded in BENCH_compress.json: each
// sub-benchmark runs the whole compression of one 64000-value block
// (16000 for strings) — profile, sampling, trial encodes, final encode —
// on data whose selected root scheme is the one named, and reports MB/s
// of input. The config carries a scratch arena, as a worker of the block
// pool does from block to block. A root other than the named one fails
// the benchmark, so an entry keeps meaning what it says.
func BenchmarkCompressBaseline(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Scratch = new(core.Scratch)
	run := func(name string, want core.Code, bytes int, compress func() []byte) {
		if got := core.Code(compress()[0]); got != want {
			b.Fatalf("%s: selection picked %v", name, got)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(bytes))
			for i := 0; i < b.N; i++ {
				compressSink = compress()
			}
		})
	}
	for _, code := range []core.Code{core.CodeRLE, core.CodeDict, core.CodeFastBP, core.CodeFastPFOR} {
		vals := baselineIntData(code)
		run(fmt.Sprintf("int/%v", code), code, 4*len(vals), func() []byte { return core.Int.Compress(compressSink[:0], vals, cfg) })
	}
	for _, code := range []core.Code{core.CodeRLE, core.CodeDict, core.CodeFastBP} {
		vals := baselineInt64Data(code)
		run(fmt.Sprintf("int64/%v", code), code, 8*len(vals), func() []byte { return core.Int64.Compress(compressSink[:0], vals, cfg) })
	}
	for _, code := range []core.Code{core.CodeRLE, core.CodeDict, core.CodePDE} {
		vals := baselineDoubleData(code)
		run(fmt.Sprintf("double/%v", code), code, 8*len(vals), func() []byte { return core.Double.Compress(compressSink[:0], vals, cfg) })
	}
	for _, code := range []core.Code{core.CodeDict, core.CodeFSST} {
		vals := baselineStringData(code)
		run(fmt.Sprintf("string/%v", code), code, vals.TotalBytes(), func() []byte { return core.String.Compress(compressSink[:0], vals, cfg) })
	}
}

// --- Selection kernels: BENCH_query.json feedstock ---

// selectPred is one named predicate of the BenchmarkSelect grid.
type selectPred[T int32 | int64] struct {
	name string
	p    *core.Pred[T]
}

// selectPreds returns the grid's four predicates: eq, a range, in of three
// non-contiguous values spanning less than 2^16, and in spanning 2^16 or
// more.
func selectPreds[T int32 | int64](eq, lo, hi T, in3, inWide []T) []selectPred[T] {
	out := []selectPred[T]{
		{"eq", &core.Pred[T]{Op: core.PredEq, Eq: eq}},
		{"range", &core.Pred[T]{Op: core.PredRange, Lo: lo, Hi: hi}},
		{"in3", &core.Pred[T]{Op: core.PredIn, In: in3}},
		{"in-wide", &core.Pred[T]{Op: core.PredIn, In: inWide}},
	}
	for _, sp := range out {
		sp.p.Normalize()
	}
	if in := out[3].p.In; int64(in[len(in)-1])-int64(in[0]) < 1<<16 {
		panic("in-wide spans less than 2^16")
	}
	return out
}

// benchSelectModes runs one stream × predicate cell in both modes: select
// into a cleared block bitset, and count without one. MB/s is of the
// stream's uncompressed values.
func benchSelectModes(b *testing.B, name string, n, rawBytes int,
	sel func([]uint64) error, count func() (int, error)) {
	b.Run(name+"/select", func(b *testing.B) {
		bits := make([]uint64, (n+63)/64)
		b.SetBytes(int64(rawBytes))
		for i := 0; i < b.N; i++ {
			clear(bits)
			if err := sel(bits); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(name+"/count", func(b *testing.B) {
		b.SetBytes(int64(rawBytes))
		for i := 0; i < b.N; i++ {
			if _, err := count(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSelectNumeric runs the predicate grid over one forced-root integer
// stream.
func benchSelectNumeric[T int32 | int64](b *testing.B, stream string, kind *core.Numeric[T, T],
	vals []T, code core.Code, preds []selectPred[T]) {
	cfg := core.DefaultConfig()
	cfg.Scratch = new(core.Scratch)
	c := *cfg
	c.IntSchemes = []core.Code{code}
	enc := kind.Compress(nil, vals, &c)
	if got := core.Code(enc[0]); got != code {
		b.Fatalf("%s: stream root is %v", stream, got)
	}
	raw := 4 * len(vals)
	if _, wide := any(vals).([]int64); wide {
		raw *= 2
	}
	for _, sp := range preds {
		benchSelectModes(b, stream+"/"+sp.name, len(vals), raw,
			func(sel []uint64) error { _, err := kind.Select(enc, sp.p, sel, nil, cfg); return err },
			func() (int, error) { n, _, err := kind.Count(enc, sp.p, nil, cfg); return n, err })
	}
}

// BenchmarkSelect is the single-core selection grid recorded in
// BENCH_query.json: streams with a forced root scheme (FastBP int32 and
// int64, the FastBP codes of a string dictionary, RLE, Frequency) ×
// predicates (eq, range, in of three non-contiguous values, in spanning
// 2^16 or more) × modes (select into a block bitset, count). A string
// dictionary of eight entries has no code set that spans 2^16, so its
// row has three predicates.
func BenchmarkSelect(b *testing.B) {
	// FastBP int32: [0, 4096), width 12.
	benchSelectNumeric(b, "int/FastBP", core.Int, baselineIntData(core.CodeFastBP), core.CodeFastBP,
		selectPreds[int32](1234, 1000, 1999, []int32{100, 2000, 4000}, []int32{100, 2000, 70000}))
	// FastBP int64: multiples of 1000 in [0, 4096000), width 22.
	benchSelectNumeric(b, "int64/FastBP", core.Int64, baselineInt64Data(core.CodeFastBP), core.CodeFastBP,
		selectPreds[int64](1234000, 1000000, 1999000, []int64{1000, 20000, 60000}, []int64{1000, 2000000, 4000000}))
	// RLE: runs of values in [0, 1000).
	benchSelectNumeric(b, "int/RLE", core.Int, baselineIntData(core.CodeRLE), core.CodeRLE,
		selectPreds[int32](500, 250, 499, []int32{100, 500, 900}, []int32{100, 500, 70000}))
	// Frequency: 7777 in 19 of 20 rows, the rest in [0, 2^20).
	benchSelectNumeric(b, "int/Frequency", core.Int, baselineIntData(core.CodeFrequency), core.CodeFrequency,
		selectPreds[int32](7777, 0, 1<<19, []int32{1000, 7777, 60000}, []int32{1000, 7777, 700000}))

	cfg := core.DefaultConfig()
	cfg.Scratch = new(core.Scratch)
	vals := baselineStringData(core.CodeDict)
	enc := core.String.CompressAs(nil, vals, core.CodeDict, cfg)
	if got := core.Code(enc[0]); got != core.CodeDict {
		b.Fatalf("string/Dict: stream root is %v", got)
	}
	strs := func(ss ...string) [][]byte {
		out := make([][]byte, len(ss))
		for i, s := range ss {
			out[i] = []byte(s)
		}
		return out
	}
	// Codes in dictionary order: Chicago 0, Dallas 1, Houston 2, Los
	// Angeles 3, New York 4, Philadelphia 5, Phoenix 6, San Antonio 7.
	for _, sp := range []struct {
		name string
		p    *core.StringPred
	}{
		{"eq", &core.StringPred{Op: core.PredEq, Eq: []byte("Chicago")}},
		{"range", &core.StringPred{Op: core.PredRange, Lo: []byte("D"), Hi: []byte("M")}},
		{"in3", &core.StringPred{Op: core.PredIn, In: strs("Chicago", "Houston", "Phoenix")}},
	} {
		sp.p.Normalize()
		benchSelectModes(b, "string/Dict/"+sp.name, vals.Len(), len(vals.Data)+4*vals.Len(),
			func(sel []uint64) error { _, err := core.String.Select(enc, sp.p, sel, nil, cfg); return err },
			func() (int, error) { n, _, err := core.String.Count(enc, sp.p, nil, cfg); return n, err })
	}
}

// --- Aggregate folds: BENCH_query.json feedstock ---

// aggStream is one one-block column of the BenchmarkAggregate grid: its
// values, the options that force its root scheme, and that scheme.
type aggStream struct {
	name string
	col  btrblocks.Column
	opt  *btrblocks.Options
	root core.Code
}

// aggStreams returns the grid's columns: each block's root is forced by
// restricting its type's pool to the scheme (and FastBP, for the integer
// sub-streams of RLE, Dict and Frequency).
func aggStreams() []aggStream {
	ints := func(code core.Code) *btrblocks.Options {
		return &btrblocks.Options{IntSchemes: []core.Code{code, core.CodeFastBP}}
	}
	doubles := func(code core.Code) *btrblocks.Options {
		return &btrblocks.Options{DoubleSchemes: []core.Code{code}}
	}
	one := make([]int32, 64000)
	for i := range one {
		one[i] = 424242
	}
	return []aggStream{
		{"int/FastBP", btrblocks.IntColumn("v", baselineIntData(core.CodeFastBP)), ints(core.CodeFastBP), core.CodeFastBP},
		{"int64/FastBP", btrblocks.Int64Column("v", baselineInt64Data(core.CodeFastBP)), ints(core.CodeFastBP), core.CodeFastBP},
		{"double/PDE", btrblocks.DoubleColumn("v", baselineDoubleData(core.CodePDE)), doubles(core.CodePDE), core.CodePDE},
		{"int/RLE", btrblocks.IntColumn("v", baselineIntData(core.CodeRLE)), ints(core.CodeRLE), core.CodeRLE},
		{"double/Dict", btrblocks.DoubleColumn("v", baselineDoubleData(core.CodeDict)), doubles(core.CodeDict), core.CodeDict},
		{"int/Frequency", btrblocks.IntColumn("v", baselineIntData(core.CodeFrequency)), ints(core.CodeFrequency), core.CodeFrequency},
		{"int/OneValue", btrblocks.IntColumn("v", one), ints(core.CodeOneValue), core.CodeOneValue},
	}
}

// BenchmarkAggregate is the single-core Count/Sum/Min/Max grid recorded in
// BENCH_query.json: one-block columns of 64,000 rows with a forced root
// scheme (FastBP int32 and int64, Pseudodecimal, RLE, a double
// dictionary, Frequency, OneValue) × selections: none, 12.5 % of the
// rows at random, one 128-row run straddling a 128-value block boundary,
// and no selection on a block with NULLs in 1 row of 16. MB/s is of the
// block's uncompressed values.
func BenchmarkAggregate(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	random := btrblocks.NewSelection()
	for r := uint32(0); r < 64000; r++ {
		if rng.Intn(8) == 0 {
			random.Bitmap().Add(r)
		}
	}
	run := btrblocks.NewSelection()
	run.Bitmap().AddRange(1000, 1128)
	nulls := btrblocks.NewNullMask()
	for r := 0; r < 64000; r++ {
		if rng.Intn(16) == 0 {
			nulls.SetNull(r)
		}
	}
	opt := &btrblocks.Options{Parallelism: 1}
	for _, s := range aggStreams() {
		for _, c := range []struct {
			name  string
			sel   *btrblocks.Selection
			nulls *btrblocks.NullMask
		}{{"none", nil, nil}, {"random", &random, nil}, {"run128", &run, nil}, {"nulls", nil, nulls}} {
			col := s.col
			col.Nulls = c.nulls
			data, err := btrblocks.CompressColumn(col, s.opt)
			if err != nil {
				b.Fatal(err)
			}
			ix, err := btrblocks.ParseColumnIndex(data)
			if err != nil {
				b.Fatal(err)
			}
			if len(ix.Blocks) != 1 || ix.Blocks[0].Scheme != s.root {
				b.Fatalf("%s: %d blocks, root %v", s.name, len(ix.Blocks), ix.Blocks[0].Scheme)
			}
			b.Run(s.name+"/"+c.name, func(b *testing.B) {
				b.SetBytes(int64(col.UncompressedBytes()))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := ix.AggregateBlocks(data, nil, c.sel, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
