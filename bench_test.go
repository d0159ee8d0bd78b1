// Benchmarks mirroring the paper's evaluation (§6): one testing.B target
// per table and figure, operating on the synthetic Public BI / TPC-H
// corpora. `go test -bench=. -benchmem` reports throughput where the
// experiment is about speed and custom metrics (ratio, $/scan, %-correct)
// where it is about compression or cost. `cmd/btrbench` runs the same
// experiments at larger scale with full table output.
package btrblocks_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"btrblocks"
	"btrblocks/coldata"
	"btrblocks/internal/codec"
	"btrblocks/internal/core"
	"btrblocks/internal/experiments"
	"btrblocks/internal/floatbase"
	"btrblocks/internal/orclike"
	"btrblocks/internal/parquetlike"
	"btrblocks/internal/pbi"
	"btrblocks/internal/s3sim"
	"btrblocks/internal/tpch"
)

const benchRows = 16000

var (
	corpusOnce sync.Once
	pbiCorpus  []pbi.Dataset
	tpchCorpus []pbi.Dataset
)

func corpora() ([]pbi.Dataset, []pbi.Dataset) {
	corpusOnce.Do(func() {
		pbiCorpus = pbi.Corpus(benchRows, 42)
		for _, ds := range tpch.Corpus(benchRows, 42) {
			tpchCorpus = append(tpchCorpus, pbi.Dataset{Name: ds.Name, Chunk: ds.Chunk})
		}
	})
	return pbiCorpus, tpchCorpus
}

type blob struct {
	name string
	data []byte
}

func compressAll(b *testing.B, f experiments.Format, corpus []pbi.Dataset) (blobs []blob, unc, comp int) {
	b.Helper()
	for _, ds := range corpus {
		for _, col := range ds.Chunk.Columns {
			data, err := f.Compress(col)
			if err != nil {
				b.Fatal(err)
			}
			blobs = append(blobs, blob{col.Name, data})
			unc += col.UncompressedBytes()
			comp += len(data)
		}
	}
	return blobs, unc, comp
}

func scanAll(b *testing.B, f experiments.Format, blobs []blob) {
	b.Helper()
	for _, bl := range blobs {
		if _, err := f.Scan(bl.data, bl.name); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 1 / Table 5: S3 scan cost ---

func BenchmarkFig1Table5_S3ScanCost(b *testing.B) {
	corpus := pbi.Largest5(benchRows, 42)
	model := s3sim.Default()
	for _, f := range []experiments.Format{
		experiments.BtrFormat(btrblocks.DefaultOptions()),
		experiments.ParquetFormat(codec.None),
		experiments.ParquetFormat(codec.Snappy),
		experiments.ParquetFormat(codec.Heavy),
	} {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			store := s3sim.NewStore()
			var objects []s3sim.Object
			unc := 0
			for _, ds := range corpus {
				for _, col := range ds.Chunk.Columns {
					data, err := f.Compress(col)
					if err != nil {
						b.Fatal(err)
					}
					key := ds.Name + "/" + col.Name
					store.Put(key, data)
					objects = append(objects, s3sim.Object{Key: key})
					unc += col.UncompressedBytes()
				}
			}
			b.SetBytes(int64(unc))
			b.ResetTimer()
			var last *s3sim.ScanResult
			for i := 0; i < b.N; i++ {
				res, err := model.Scan(store, objects, 0, func(key string, data []byte) (int, error) {
					return f.Scan(data, key)
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.CostDollars*1e6, "microdollars/scan")
			b.ReportMetric(last.TcGbps(), "Tc-Gbps")
		})
	}
}

// --- Table 2: compression ratio per format ---

func BenchmarkTable2_Compress(b *testing.B) {
	pbiC, tpchC := corpora()
	for _, part := range []struct {
		name   string
		corpus []pbi.Dataset
	}{{"pbi", pbiC}, {"tpch", tpchC}} {
		for _, f := range experiments.StandardFormats() {
			f := f
			b.Run(part.name+"/"+f.Name, func(b *testing.B) {
				unc := 0
				for _, ds := range part.corpus {
					unc += ds.Chunk.UncompressedBytes()
				}
				b.SetBytes(int64(unc))
				var comp int
				for i := 0; i < b.N; i++ {
					_, u, c := compressAll(b, f, part.corpus)
					_ = u
					comp = c
				}
				b.ReportMetric(float64(unc)/float64(comp), "ratio")
			})
		}
	}
}

// --- Figure 4: scheme pool ablation (decompression side) ---

func BenchmarkFig4_PoolAblation(b *testing.B) {
	pbiC, _ := corpora()
	stages := []struct {
		name string
		opt  *btrblocks.Options
	}{
		{"uncompressed", &btrblocks.Options{
			IntSchemes: []btrblocks.Scheme{}, DoubleSchemes: []btrblocks.Scheme{}, StringSchemes: []btrblocks.Scheme{}}},
		{"light", &btrblocks.Options{
			IntSchemes:    []btrblocks.Scheme{btrblocks.SchemeOneValue, btrblocks.SchemeRLE},
			DoubleSchemes: []btrblocks.Scheme{btrblocks.SchemeOneValue, btrblocks.SchemeRLE},
			StringSchemes: []btrblocks.Scheme{btrblocks.SchemeOneValue}}},
		{"full", btrblocks.DefaultOptions()},
	}
	for _, st := range stages {
		st := st
		b.Run(st.name, func(b *testing.B) {
			f := experiments.BtrFormat(st.opt)
			blobs, unc, comp := compressAll(b, f, pbiC)
			b.SetBytes(int64(unc))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scanAll(b, f, blobs)
			}
			b.ReportMetric(float64(unc)/float64(comp), "ratio")
		})
	}
}

// --- Figure 5: sampling strategy accuracy ---

func BenchmarkFig5_SamplingStrategies(b *testing.B) {
	pbiC, _ := corpora()
	var cols []btrblocks.Column
	for _, ds := range pbiC[:8] {
		cols = append(cols, ds.Chunk.Columns...)
	}
	for _, st := range []struct {
		name         string
		runs, runLen int
	}{{"single", 640, 1}, {"10x64", 10, 64}, {"range", 1, 640}} {
		st := st
		b.Run(st.name, func(b *testing.B) {
			opt := &btrblocks.Options{SampleRuns: st.runs, SampleRunLen: st.runLen}
			for i := 0; i < b.N; i++ {
				for _, col := range cols {
					btrblocks.Choose(col, opt)
				}
			}
		})
	}
}

// --- Figure 6: sample size vs selection cost ---

func BenchmarkFig6_SampleSizes(b *testing.B) {
	pbiC, _ := corpora()
	var cols []btrblocks.Column
	for _, ds := range pbiC[:8] {
		cols = append(cols, ds.Chunk.Columns...)
	}
	for _, runLen := range []int{8, 64, 512, 4096} {
		runLen := runLen
		b.Run(fmt.Sprintf("10x%d", runLen), func(b *testing.B) {
			opt := &btrblocks.Options{SampleRuns: 10, SampleRunLen: runLen}
			for i := 0; i < b.N; i++ {
				for _, col := range cols {
					btrblocks.Choose(col, opt)
				}
			}
		})
	}
}

// --- Figure 7: compression ratios lineup ---

func BenchmarkFig7_Ratios(b *testing.B) {
	pbiC, _ := corpora()
	for _, f := range []experiments.Format{
		experiments.ParquetFormat(codec.Heavy),
		experiments.BtrFormat(btrblocks.DefaultOptions()),
		experiments.ORCFormat(codec.Snappy),
	} {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			unc := 0
			for _, ds := range pbiC {
				unc += ds.Chunk.UncompressedBytes()
			}
			b.SetBytes(int64(unc))
			var comp int
			for i := 0; i < b.N; i++ {
				_, _, comp = compressAll(b, f, pbiC)
			}
			b.ReportMetric(float64(unc)/float64(comp), "ratio")
		})
	}
}

// --- §6.4: compression speed from binary ---

func BenchmarkCompressionSpeed_FromBinary(b *testing.B) {
	pbiC, _ := corpora()
	lineups := []struct {
		name string
		do   func(col btrblocks.Column) (int, error)
	}{
		{"btrblocks", func(col btrblocks.Column) (int, error) {
			data, err := btrblocks.CompressColumn(col, btrblocks.DefaultOptions())
			return len(data), err
		}},
		{"parquet+snappy", func(col btrblocks.Column) (int, error) {
			data, err := parquetlike.CompressColumn(col, &parquetlike.Options{Codec: codec.Snappy})
			return len(data), err
		}},
		{"orc+zstd*", func(col btrblocks.Column) (int, error) {
			data, err := orclike.CompressColumn(col, &orclike.Options{Codec: codec.Heavy})
			return len(data), err
		}},
	}
	for _, lu := range lineups {
		lu := lu
		b.Run(lu.name, func(b *testing.B) {
			unc := 0
			for _, ds := range pbiC {
				unc += ds.Chunk.UncompressedBytes()
			}
			b.SetBytes(int64(unc))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ds := range pbiC {
					for _, col := range ds.Chunk.Columns {
						if _, err := lu.do(col); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// --- Table 3: double codecs ---

func BenchmarkTable3_DoubleCodecs(b *testing.B) {
	cols := pbi.Table3Columns(benchRows, 42)
	var all []float64
	for _, nc := range cols {
		all = append(all, nc.Col.Doubles...)
	}
	type c struct {
		name   string
		encode func([]byte, []float64) []byte
	}
	for _, cd := range []c{
		{"fpc", floatbase.FPCEncode},
		{"gorilla", floatbase.GorillaEncode},
		{"chimp", floatbase.ChimpEncode},
		{"chimp128", floatbase.Chimp128Encode},
	} {
		cd := cd
		b.Run(cd.name, func(b *testing.B) {
			b.SetBytes(int64(len(all) * 8))
			var size int
			for i := 0; i < b.N; i++ {
				size = len(cd.encode(nil, all))
			}
			b.ReportMetric(float64(len(all)*8)/float64(size), "ratio")
		})
	}
	b.Run("pde", func(b *testing.B) {
		b.SetBytes(int64(len(all) * 8))
		opt := btrblocks.DefaultOptions()
		var size int
		for i := 0; i < b.N; i++ {
			data, err := btrblocks.CompressColumn(
				btrblocks.DoubleColumn("t3", all), opt)
			if err != nil {
				b.Fatal(err)
			}
			size = len(data)
		}
		b.ReportMetric(float64(len(all)*8)/float64(size), "ratio")
	})
}

// --- §6.5: PDE within the pool (decompression of a PDE column) ---

func BenchmarkPDEPool_Decode(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	src := make([]float64, 64000)
	for i := range src {
		src[i] = float64(rng.Intn(1000000)) / 100
	}
	opt := btrblocks.DefaultOptions()
	data, err := btrblocks.CompressColumn(btrblocks.DoubleColumn("p", src), opt)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := btrblocks.DecompressColumn(data, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 8: in-memory decompression bandwidth ---

func BenchmarkFig8_Decompression(b *testing.B) {
	pbiC, tpchC := corpora()
	for _, part := range []struct {
		name   string
		corpus []pbi.Dataset
	}{{"pbi", pbiC}, {"tpch", tpchC}} {
		for _, f := range experiments.Fig8Formats() {
			f := f
			b.Run(part.name+"/"+f.Name, func(b *testing.B) {
				blobs, unc, comp := compressAll(b, f, part.corpus)
				b.SetBytes(int64(unc))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					scanAll(b, f, blobs)
				}
				b.ReportMetric(float64(unc)/float64(comp), "ratio")
			})
		}
	}
}

// --- Table 4: per-column decode, btr vs parquet+zstd* ---

func BenchmarkTable4_Columns(b *testing.B) {
	cols := pbi.Table4Columns(benchRows, 42)
	btr := experiments.BtrFormat(btrblocks.DefaultOptions())
	zstd := experiments.ParquetFormat(codec.Heavy)
	for _, nc := range cols[:6] { // a representative slice keeps -bench=. fast
		nc := nc
		for _, f := range []experiments.Format{btr, zstd} {
			f := f
			b.Run(nc.Dataset+"_"+nc.Name+"/"+f.Name, func(b *testing.B) {
				data, err := f.Compress(nc.Col)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(nc.Col.UncompressedBytes()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := f.Scan(data, nc.Col.Name); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(nc.Col.UncompressedBytes())/float64(len(data)), "ratio")
			})
		}
	}
}

// --- §6.7: single-column loads ---

func BenchmarkColumnScan_SingleColumn(b *testing.B) {
	ds := pbi.Largest5(benchRows, 42)[0]
	model := s3sim.Default()
	f := experiments.BtrFormat(btrblocks.DefaultOptions())
	store := s3sim.NewStore()
	col := ds.Chunk.Columns[0]
	data, err := f.Compress(col)
	if err != nil {
		b.Fatal(err)
	}
	store.Put("col", data)
	b.SetBytes(int64(col.UncompressedBytes()))
	for i := 0; i < b.N; i++ {
		if _, err := model.Scan(store, []s3sim.Object{{Key: "col"}}, 1,
			func(key string, d []byte) (int, error) { return f.Scan(d, key) }); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §6.8: scalar ablation ---

func BenchmarkScalar_Ablation(b *testing.B) {
	pbiC, _ := corpora()
	for _, cfgp := range []struct {
		name string
		opt  *btrblocks.Options
	}{
		{"optimized", btrblocks.DefaultOptions()},
		{"scalar", &btrblocks.Options{ScalarDecode: true}},
	} {
		cfgp := cfgp
		b.Run(cfgp.name, func(b *testing.B) {
			f := experiments.BtrFormat(cfgp.opt)
			blobs, unc, _ := compressAll(b, f, pbiC)
			b.SetBytes(int64(unc))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scanAll(b, f, blobs)
			}
		})
	}
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
	pbiC, _ := corpora()
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
// baseline; "off" must stay within noise (~2%) of the baseline.
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
