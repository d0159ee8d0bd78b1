package experiments

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"btrblocks"
	"btrblocks/internal/codec"
	"btrblocks/internal/pbi"
)

// smallCfg keeps experiment runtime testable.
func smallCfg(buf *strings.Builder) *Config {
	return &Config{Rows: 4000, Seed: 42, Threads: 2, Reps: 1, W: buf}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, exp := range []struct {
		name string
		fn   func(*Config) error
	}{
		{"fig1", Fig1},
		{"table2", Table2},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"compspeed", CompressionSpeed},
		{"table3", Table3},
		{"pde-pool", PDEPool},
		{"fig8", Fig8},
		{"table4", Table4},
		{"table5", Table5},
		{"colscan", ColumnScan},
		{"scalar", Scalar},
		{"kernels", Kernels},
		{"selection", SelectionOverhead},
		{"serve", Serve},
	} {
		exp := exp
		t.Run(exp.name, func(t *testing.T) {
			var buf strings.Builder
			if err := exp.fn(smallCfg(&buf)); err != nil {
				t.Fatalf("%s: %v", exp.name, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", exp.name)
			}
		})
	}
}

func TestBtrBeatsParquetOnPBIRatioAndSpeed(t *testing.T) {
	// The headline result: on PBI-like data, BtrBlocks decompresses
	// faster than every Parquet variant while compressing better than
	// plain Parquet and the byte-LZ variants.
	corpus := pbi.Corpus(8000, 7)
	btr, err := compressCorpus(BtrFormat(btrblocks.DefaultOptions()), corpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []codec.Kind{codec.None, codec.Snappy, codec.LZ4} {
		pq, err := compressCorpus(ParquetFormat(k), corpus)
		if err != nil {
			t.Fatal(err)
		}
		if btr.ratio() <= pq.ratio() {
			t.Errorf("btr ratio %.2f <= parquet(%s) ratio %.2f", btr.ratio(), k, pq.ratio())
		}
	}
	// Decompression speed: measured, so compare with margin.
	btrSecs, err := btr.decompressAll(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	pqz, err := compressCorpus(ParquetFormat(codec.Heavy), corpus)
	if err != nil {
		t.Fatal(err)
	}
	pqzSecs, err := pqz.decompressAll(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if btrSecs >= pqzSecs {
		t.Errorf("btr decompression (%.4fs) not faster than parquet+zstd* (%.4fs)", btrSecs, pqzSecs)
	}
}

func TestThreadsScalingFloor(t *testing.T) {
	// §6.4's shape on the smallest host that can show it: a second
	// worker must buy at least 1.3x on whole-chunk decompression
	// (measured here: 1.9x; 1.2x while a serial assembly followed the
	// parallel decode). The floor is well under the measurement so that
	// a busy host does not fail it, and a serial tail does.
	if testing.Short() {
		t.Skip("timed")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two cores")
	}
	chunks, _, _, err := compressChunks(&Config{Rows: 16000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Other packages' tests may hold the second core for a while.
	for attempt := 1; ; attempt++ {
		one := decompressChunksSeconds(chunks, 1, 5)
		two := decompressChunksSeconds(chunks, 2, 5)
		if one/two >= 1.3 {
			return
		}
		if attempt == 3 {
			t.Fatalf("2 workers decompress %.2fx as fast as 1 (%.3fs vs %.3fs), want at least 1.3x", one/two, two, one)
		}
		t.Logf("attempt %d: %.2fx (%.3fs vs %.3fs)", attempt, one/two, two, one)
	}
}

func TestExhaustiveBestIsLowerBound(t *testing.T) {
	// The exhaustive-best size must be <= the sampled pick's size.
	corpus := pbi.Corpus(4000, 9)
	truth := buildGroundTruth(corpus[:4])
	if len(truth) == 0 {
		t.Fatal("no ground truth columns")
	}
	for _, gt := range truth {
		choice := chooseWith(gt.col, 10, 64, 42)
		if sz, ok := gt.sizes[choice]; ok && sz < gt.best {
			t.Fatalf("sampled choice beat the exhaustive best: %d < %d", sz, gt.best)
		}
	}
}

func TestPDEFixedCascadeRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := make([]float64, 20000)
	for i := range src {
		src[i] = float64(rng.Intn(100000)) / 100
		if i%701 == 0 {
			src[i] = rng.NormFloat64() * 1e40
		}
	}
	if !verifyPDERoundTrip(src) {
		t.Fatal("fixed PDE cascade does not round-trip")
	}
}

func TestTable3Shape(t *testing.T) {
	// Key relative results of Table 3 must reproduce on the synthetic
	// columns: PDE wins Gov/31, RLE-friendly Gov/26 still compresses
	// hugely with PDE, and PDE fails on NYC/29 coordinates.
	cols := pbi.Table3Columns(32000, 42)
	ratios := map[string]map[string]float64{}
	for _, nc := range cols {
		src := nc.Col.Doubles
		raw := float64(len(src) * 8)
		ratios[nc.Dataset+"/"+nc.Name] = map[string]float64{
			"pde":  raw / float64(pdeFixedCascade(src)),
			"dict": raw / float64(dictFixedCascade(src)),
			"rle":  raw / float64(rleFixedCascade(src)),
			"bp":   raw / float64(bpDirect(src)),
		}
	}
	if r := ratios["CommonGovernment/31"]; r["pde"] < 2 || r["pde"] < r["dict"] {
		t.Errorf("Gov/31: PDE %.2f should clearly beat dict %.2f", r["pde"], r["dict"])
	}
	if r := ratios["NYC/29"]; r["pde"] > 1.5 {
		t.Errorf("NYC/29: PDE %.2f should fail on high-precision coordinates", r["pde"])
	}
	if r := ratios["CommonGovernment/26"]; r["rle"] < 10 {
		t.Errorf("Gov/26: RLE %.2f should be large on long runs", r["rle"])
	}
	if r := ratios["CommonGovernment/40"]; r["rle"] < r["pde"] {
		t.Errorf("Gov/40: RLE %.2f should beat PDE %.2f on very long runs", r["rle"], r["pde"])
	}
}
