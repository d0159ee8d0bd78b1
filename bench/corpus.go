package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"

	"btrblocks"
	"btrblocks/internal/blockstore"
	"btrblocks/internal/pbi"
	"btrblocks/internal/tpch"
)

// scale fixes how much data and how many traced ops a run uses. There
// are exactly two: full is what the driver and the recorded baselines
// use; smoke is what bench_test.go uses. Neither is a CLI knob.
type scale struct {
	tableRows   int // rows of each lake table (one default-size block per column)
	queryRows   int // rows of the query table (several blocks, so pruning has work)
	setups      int // times set-up is repeated; setup_s is their median
	poolBatches int // distinct 500-row append bodies, over all ingest tables
	traceDiv    int // divides each workload's traced-stream length
	kernelReps  int // repetitions of each substrate-kernel probe
}

var (
	full  = scale{tableRows: 64000, queryRows: 512000, setups: 3, poolBatches: 192, traceDiv: 1, kernelReps: 20}
	smoke = scale{tableRows: 16000, queryRows: 256000, setups: 1, poolBatches: 16, traceDiv: 10, kernelReps: 2}
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// column is one column of the corpus: the generated values (the
// reference every reply is checked against) and its compressed file.
type column struct {
	name string // store-relative file name, "<table>/<column>"
	col  btrblocks.Column
	raw  int    // uncompressed bytes, Column.UncompressedBytes accounting
	data []byte // compressed column file, default Options
	crc  uint32 // CRC32C of data: compression is deterministic, so a recompress must match
	// blockNulls[b] is the NULL count of block b, checked on every fetch.
	blockNulls []int
}

func (c *column) blocks() int { return len(c.blockNulls) }

// blockRows returns the row range [lo,hi) of block b.
func (c *column) blockRows(b int) (lo, hi int) {
	lo = b * btrblocks.DefaultBlockSize
	hi = min(lo+btrblocks.DefaultBlockSize, c.col.Len())
	return lo, hi
}

func newColumn(name string, col btrblocks.Column) *column {
	c := &column{name: name, col: col, raw: col.UncompressedBytes()}
	nb := (col.Len() + btrblocks.DefaultBlockSize - 1) / btrblocks.DefaultBlockSize
	c.blockNulls = make([]int, nb)
	col.Nulls.ForEachNull(func(i int) bool {
		c.blockNulls[i/btrblocks.DefaultBlockSize]++
		return true
	})
	return c
}

// lakeSeed is the generator seed of the lake tables. It is a constant,
// not --seed: internal/pbi draws a table's structure from its seed (200
// to 3200 distinct URLs, a zero share of 0.70 to 0.95, ...), which moved
// stored_ratio by +-7 % and compress MB/s by +-15 % from one seed to the
// next — wider than any bound worth gating on. Like the paper's, the
// data set is fixed; --seed drives everything sampled from or over it:
// op order, plan literals, the query table's values, the appended rows.
const lakeSeed = 42

// genLake generates the paper's corpus stand-in: the five largest
// Public BI workbooks plus TPC-H lineitem, uncompressed.
func genLake(rows int) []*column {
	var cols []*column
	for _, ds := range pbi.Largest5(rows, lakeSeed) {
		for _, col := range ds.Chunk.Columns {
			cols = append(cols, newColumn(col.Name, col)) // PBI names carry the table prefix
		}
	}
	li := tpch.Lineitem(rows, lakeSeed)
	for _, col := range li.Columns {
		cols = append(cols, newColumn("lineitem/"+col.Name, col))
	}
	return cols
}

// compressAll compresses every column with the default options and
// proves the round trip: the decoded column must equal the generated
// one at every non-NULL row.
func compressAll(cols []*column) error {
	for _, c := range cols {
		data, err := btrblocks.CompressColumn(c.col, nil)
		if err != nil {
			return fmt.Errorf("compress %s: %w", c.name, err)
		}
		c.data = data
		c.crc = crc32.Checksum(data, castagnoli)
		back, err := btrblocks.DecompressColumn(data, nil)
		if err != nil {
			return fmt.Errorf("decompress %s: %w", c.name, err)
		}
		if err := c.equal(&back); err != nil {
			return err
		}
	}
	return nil
}

// equal compares a decoded column against the reference in full.
func (c *column) equal(got *btrblocks.Column) error {
	if got.Type != c.col.Type || got.Len() != c.col.Len() {
		return fmt.Errorf("%s: round trip changed shape: %v/%d, want %v/%d",
			c.name, got.Type, got.Len(), c.col.Type, c.col.Len())
	}
	if got.Nulls.NullCount() != c.col.Nulls.NullCount() {
		return fmt.Errorf("%s: round trip changed NULL count", c.name)
	}
	for i := 0; i < c.col.Len(); i++ {
		if !c.sameAt(got, i, i) {
			return fmt.Errorf("%s: round trip changed row %d", c.name, i)
		}
	}
	return nil
}

// sameAt reports whether row gi of got equals reference row ri. NULL
// rows only have to be NULL on both sides: their content is unspecified.
func (c *column) sameAt(got *btrblocks.Column, gi, ri int) bool {
	if c.col.Nulls.IsNull(ri) {
		return got.Nulls.IsNull(gi)
	}
	switch c.col.Type {
	case btrblocks.TypeInt:
		return got.Ints[gi] == c.col.Ints[ri]
	case btrblocks.TypeInt64:
		return got.Ints64[gi] == c.col.Ints64[ri]
	case btrblocks.TypeDouble:
		return got.Doubles[gi] == c.col.Doubles[ri]
	default:
		return string(got.Strings.View(gi)) == string(c.col.Strings.View(ri))
	}
}

// checkSampled verifies a decoded column cheaply enough to sit inside a
// timed op: shape, NULL count, and 16 rows spread over the column. The
// full comparison ran once at set-up.
func (c *column) checkSampled(got *btrblocks.Column) bool {
	if got.Type != c.col.Type || got.Len() != c.col.Len() ||
		got.Nulls.NullCount() != c.col.Nulls.NullCount() {
		return false
	}
	n := c.col.Len()
	for k := 0; k < 16 && n > 0; k++ {
		i := (k*n + n/2) / 16 % n
		if !c.sameAt(got, i, i) {
			return false
		}
	}
	return true
}

// checkBlock verifies a fetched block the same way: shape, start row,
// NULL count and 16 sampled rows against the generated values.
func (c *column) checkBlock(bv *blockstore.BlockValues, b int) bool {
	lo, hi := c.blockRows(b)
	if bv == nil || bv.Rows != hi-lo || bv.StartRow != lo || len(bv.Nulls) != c.blockNulls[b] ||
		bv.WireType() != c.col.Type {
		return false
	}
	n := hi - lo
	for k := 0; k < 16; k++ {
		i := (k*n + n/2) / 16 % n
		r := lo + i
		if c.col.Nulls.IsNull(r) {
			continue
		}
		var ok bool
		switch c.col.Type {
		case btrblocks.TypeInt:
			ok = bv.Ints[i] == c.col.Ints[r]
		case btrblocks.TypeInt64:
			ok = bv.Ints64[i] == c.col.Ints64[r]
		case btrblocks.TypeDouble:
			ok = bv.Doubles[i] == c.col.Doubles[r]
		default:
			ok = bv.Strings[i] == string(c.col.Strings.View(r))
		}
		if !ok {
			return false
		}
	}
	return true
}

// typeKey groups the four column types into the three the paper
// reports on (int64 counts as integer).
func typeKey(t btrblocks.Type) string {
	switch t {
	case btrblocks.TypeInt, btrblocks.TypeInt64:
		return "int"
	case btrblocks.TypeDouble:
		return "double"
	default:
		return "string"
	}
}

// storedRatio is user bytes over stored bytes for a set of columns.
func storedRatio(cols []*column) float64 {
	var raw, stored int
	for _, c := range cols {
		raw += c.raw
		stored += len(c.data)
	}
	return float64(raw) / float64(stored)
}

// Names of the query table's column files. Shapes follow
// internal/experiments/query.go: each is built so one scheme, and so one
// compressed-domain path, wins the cascade.
const (
	qTS     = "q/event_ts" // sorted int64, served with a BTRM sidecar: pruning
	qRegion = "q/region"   // 24 distinct strings: dictionary code probes
	qStatus = "q/status"   // long runs of 5 values: RLE run walks
	qSeq    = "q/seq"      // near-sorted ids: FOR/bit-packed mini-block skipping
	qAmount = "q/amount"   // doubles on a 0.25 grid: sums are exact in any order
)

// queryTable is the generated table the plan set runs over.
type queryTable struct {
	ts     []int64
	region []uint8 // index into regionNames
	status []int32
	seq    []int32
	amount []float64
	cols   []*column
}

var regionNames = func() []string {
	out := make([]string, 24)
	for i := range out {
		out[i] = fmt.Sprintf("region-%02d", i)
	}
	return out
}()

func genQueryTable(seed int64, rows int) *queryTable {
	rng := rand.New(rand.NewSource(seed ^ 0x71756572)) // "quer": decorrelate from the lake generators
	t := &queryTable{
		ts:     make([]int64, rows),
		region: make([]uint8, rows),
		status: make([]int32, rows),
		seq:    make([]int32, rows),
		amount: make([]float64, rows),
	}
	regions := make([]string, rows)
	for i := 0; i < rows; i++ {
		t.ts[i] = 1_600_000_000_000 + int64(i)*250
		t.region[i] = uint8(rng.Intn(len(regionNames)))
		regions[i] = regionNames[t.region[i]]
		t.seq[i] = 5_000_000 + int32(i) + rng.Int31n(64)
		t.amount[i] = float64(rng.Intn(400_000)) / 4
	}
	for i := 0; i < rows; {
		run := 1 + rng.Intn(400)
		v := int32(rng.Intn(5) * 100)
		for j := 0; j < run && i < rows; j++ {
			t.status[i] = v
			i++
		}
	}
	t.cols = []*column{
		newColumn(qTS, btrblocks.Int64Column(qTS, t.ts)),
		newColumn(qRegion, btrblocks.StringColumn(qRegion, regions)),
		newColumn(qStatus, btrblocks.IntColumn(qStatus, t.status)),
		newColumn(qSeq, btrblocks.IntColumn(qSeq, t.seq)),
		newColumn(qAmount, btrblocks.DoubleColumn(qAmount, t.amount)),
	}
	return t
}

// mix64 is splitmix64: op i of a stream is a pure function of (seed, i),
// so any caller can produce it without shared generator state.
func mix64(seed int64, i uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
