package btrblocks

// Property harness for the parallel decode engine's hard invariant:
// every parallel path is bit-for-bit equivalent to the serial walk at
// any worker count. Seeded generators sweep column shapes (type, NULL
// density, run length, cardinality, sizes straddling block boundaries)
// and every case asserts three properties:
//
//  1. compress→decompress identity (non-NULL slots; NULL slot content
//     is unspecified by contract),
//  2. compressed bytes identical across Parallelism ∈ {1, 2, 7, NumCPU},
//  3. decompressed vectors — including rewritten NULL slots — identical
//     across the same worker counts.
//
// A companion determinism test pins the engine's min-index error
// contract: with corrupted blocks, the error surfaced at any worker
// count is the one the serial walk hits first.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"btrblocks/internal/core"
	"btrblocks/internal/testgen"
)

// The seeded shape generators live in internal/testgen so the query
// engine's differential oracle shares the exact same sweep; these
// adapters wrap the generated value/NULL-position pairs into Columns.

// equivWorkerCounts are the Parallelism values every property is checked
// under (see testgen.WorkerCounts).
func equivWorkerCounts() []int { return testgen.WorkerCounts() }

// genSpec aliases testgen.Spec; equivSpecs sweeps the standard
// block-boundary-straddling corners.
type genSpec = testgen.Spec

func equivSpecs() []genSpec { return testgen.Specs() }

// withNulls marks the generated NULL positions on a column.
func withNulls(col Column, nulls []int) Column {
	for _, i := range nulls {
		if col.Nulls == nil {
			col.Nulls = NewNullMask()
		}
		col.Nulls.SetNull(i)
	}
	return col
}

func genIntColumnEquiv(rng *rand.Rand, s genSpec) Column {
	values, nulls := testgen.IntValues(rng, s)
	return withNulls(IntColumn("i", values), nulls)
}

func genInt64ColumnEquiv(rng *rand.Rand, s genSpec) Column {
	values, nulls := testgen.Int64Values(rng, s)
	return withNulls(Int64Column("l", values), nulls)
}

func genDoubleColumnEquiv(rng *rand.Rand, s genSpec) Column {
	values, nulls := testgen.DoubleValues(rng, s)
	return withNulls(DoubleColumn("d", values), nulls)
}

func genStringColumnEquiv(rng *rand.Rand, s genSpec) Column {
	values, nulls := testgen.StringValues(rng, s)
	return withNulls(StringColumn("s", values), nulls)
}

func genColumnEquiv(rng *rand.Rand, typ Type, s genSpec) Column {
	switch typ {
	case TypeInt:
		return genIntColumnEquiv(rng, s)
	case TypeInt64:
		return genInt64ColumnEquiv(rng, s)
	case TypeDouble:
		return genDoubleColumnEquiv(rng, s)
	default:
		return genStringColumnEquiv(rng, s)
	}
}

func nullPositions(m *NullMask) []int {
	var out []int
	m.ForEachNull(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// valueAt renders row i for diagnostics and comparison; doubles compare
// by bit pattern so -0.0 and NaN payloads count.
func valueAt(c *Column, i int) string {
	switch c.Type {
	case TypeInt:
		return fmt.Sprint(c.Ints[i])
	case TypeInt64:
		return fmt.Sprint(c.Ints64[i])
	case TypeDouble:
		return fmt.Sprintf("%016x", math.Float64bits(c.Doubles[i]))
	default:
		return c.Strings.At(i)
	}
}

// requireIdentical asserts a and b are bit-for-bit the same column,
// NULL-slot contents included. This is the serial≡parallel check: both
// decode paths run the same per-block code, so even unspecified slots
// must agree.
func requireIdentical(t *testing.T, label string, a, b Column) {
	t.Helper()
	requireExactVectors(t, label, b)
	if a.Len() != b.Len() {
		t.Fatalf("%s: len %d != %d", label, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if valueAt(&a, i) != valueAt(&b, i) {
			t.Fatalf("%s: row %d: %q != %q", label, i, valueAt(&a, i), valueAt(&b, i))
		}
	}
	an, bn := nullPositions(a.Nulls), nullPositions(b.Nulls)
	if len(an) != len(bn) {
		t.Fatalf("%s: null count %d != %d", label, len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("%s: null position %d != %d", label, an[i], bn[i])
		}
	}
}

// requireExactVectors asserts a decoded column's vectors have no spare
// capacity. The block cache is bounded by Column.UncompressedBytes, which
// counts lengths: capacity past them would be resident memory the LRU
// cannot see.
func requireExactVectors(t *testing.T, label string, c Column) {
	t.Helper()
	if cap(c.Ints) != len(c.Ints) || cap(c.Ints64) != len(c.Ints64) || cap(c.Doubles) != len(c.Doubles) ||
		cap(c.Strings.Offsets) != len(c.Strings.Offsets) || cap(c.Strings.Data) != len(c.Strings.Data) {
		t.Fatalf("%s: decoded vectors carry spare capacity: ints %d/%d int64s %d/%d doubles %d/%d offsets %d/%d data %d/%d",
			label, len(c.Ints), cap(c.Ints), len(c.Ints64), cap(c.Ints64), len(c.Doubles), cap(c.Doubles),
			len(c.Strings.Offsets), cap(c.Strings.Offsets), len(c.Strings.Data), cap(c.Strings.Data))
	}
}

// requireRoundTrip asserts got reproduces orig at every non-NULL row and
// preserves the NULL set exactly.
func requireRoundTrip(t *testing.T, label string, orig, got Column) {
	t.Helper()
	requireExactVectors(t, label, got)
	if orig.Len() != got.Len() {
		t.Fatalf("%s: len %d != %d", label, orig.Len(), got.Len())
	}
	for i := 0; i < orig.Len(); i++ {
		if orig.Nulls.IsNull(i) {
			if !got.Nulls.IsNull(i) {
				t.Fatalf("%s: row %d lost its NULL", label, i)
			}
			continue
		}
		if got.Nulls.IsNull(i) {
			t.Fatalf("%s: row %d gained a NULL", label, i)
		}
		if valueAt(&orig, i) != valueAt(&got, i) {
			t.Fatalf("%s: row %d: %q != %q", label, i, valueAt(&orig, i), valueAt(&got, i))
		}
	}
	if orig.Nulls.NullCount() != got.Nulls.NullCount() {
		t.Fatalf("%s: null count %d != %d", label, orig.Nulls.NullCount(), got.Nulls.NullCount())
	}
}

// TestParallelColumnEquivalenceProperty is the core property sweep:
// seeded random columns of every type and shape, compressed and
// decompressed at every worker count.
func TestParallelColumnEquivalenceProperty(t *testing.T) {
	for _, typ := range []Type{TypeInt, TypeInt64, TypeDouble, TypeString} {
		typ := typ
		t.Run(typ.String(), func(t *testing.T) {
			t.Parallel()
			for si, s := range equivSpecs() {
				rng := rand.New(rand.NewSource(int64(1000*int(typ) + si)))
				col := genColumnEquiv(rng, typ, s)

				var baseline []byte
				for _, workers := range equivWorkerCounts() {
					opt := &Options{BlockSize: 1000, Parallelism: workers}
					data, err := CompressColumn(col, opt)
					if err != nil {
						t.Fatalf("%s: compress P=%d: %v", s.Label(), workers, err)
					}
					if baseline == nil {
						baseline = data
					} else if !bytes.Equal(baseline, data) {
						t.Fatalf("%s: compressed bytes differ at P=%d", s.Label(), workers)
					}
				}

				var serial Column
				for _, workers := range equivWorkerCounts() {
					opt := &Options{BlockSize: 1000, Parallelism: workers}
					got, err := DecompressColumn(baseline, opt)
					if err != nil {
						t.Fatalf("%s: decompress P=%d: %v", s.Label(), workers, err)
					}
					if workers == 1 {
						serial = got
						requireRoundTrip(t, s.Label()+"/roundtrip", col, got)
					} else {
						requireIdentical(t, fmt.Sprintf("%s/P=%d", s.Label(), workers), serial, got)
					}
				}
			}
		})
	}
}

// TestParallelEquivalenceRestrictedSchemes re-runs the byte-identity
// property under restricted scheme pools — option variants must not
// reintroduce worker-count dependence.
func TestParallelEquivalenceRestrictedSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spec := genSpec{Rows: 2500, NullDensity: 0.1, RunLen: 16, Cardinality: 40}
	cols := []Column{genIntColumnEquiv(rng, spec), genInt64ColumnEquiv(rng, spec)}
	pools := [][]Scheme{
		{SchemeUncompressed},
		{SchemeUncompressed, SchemeRLE},
		{SchemeUncompressed, SchemeDict, SchemeFastBP},
		{SchemeUncompressed, SchemeFrequency},
		{SchemeUncompressed, SchemeOneValue, SchemeFastBP},
	}
	for _, col := range cols {
		for pi, pool := range pools {
			var baseline []byte
			for _, workers := range equivWorkerCounts() {
				opt := &Options{BlockSize: 1000, Parallelism: workers, IntSchemes: pool}
				data, err := CompressColumn(col, opt)
				if err != nil {
					t.Fatalf("%s pool %d P=%d: %v", col.Type, pi, workers, err)
				}
				if baseline == nil {
					baseline = data
				} else if !bytes.Equal(baseline, data) {
					t.Fatalf("%s pool %d: compressed bytes differ at P=%d", col.Type, pi, workers)
				}
				if _, err := DecompressColumn(data, opt); err != nil {
					t.Fatalf("%s pool %d P=%d decompress: %v", col.Type, pi, workers, err)
				}
			}
		}
	}
}

// equivChunk builds a four-type chunk sized to straddle block
// boundaries at BlockSize 1000.
func equivChunk(seed int64, rows int) *Chunk {
	rng := rand.New(rand.NewSource(seed))
	s := genSpec{Rows: rows, NullDensity: 0.2, RunLen: 8, Cardinality: 64}
	return &Chunk{Columns: []Column{
		genIntColumnEquiv(rng, s),
		genInt64ColumnEquiv(rng, s),
		genDoubleColumnEquiv(rng, s),
		genStringColumnEquiv(rng, s),
	}}
}

// TestParallelChunkEquivalence checks the whole-chunk paths: compressed
// container bytes identical across worker counts, decompressed chunks
// identical to the serial decode.
func TestParallelChunkEquivalence(t *testing.T) {
	chunk := equivChunk(11, 2501)
	var baseline []byte
	var cc *CompressedChunk
	for _, workers := range equivWorkerCounts() {
		opt := &Options{BlockSize: 1000, Parallelism: workers}
		c, err := CompressChunk(chunk, opt)
		if err != nil {
			t.Fatalf("compress P=%d: %v", workers, err)
		}
		file := c.EncodeFile()
		if baseline == nil {
			baseline, cc = file, c
		} else if !bytes.Equal(baseline, file) {
			t.Fatalf("chunk file bytes differ at P=%d", workers)
		}
	}

	var serial *Chunk
	for _, workers := range equivWorkerCounts() {
		opt := &Options{BlockSize: 1000, Parallelism: workers}
		got, err := DecompressChunk(cc, opt)
		if err != nil {
			t.Fatalf("decompress P=%d: %v", workers, err)
		}
		if serial == nil {
			serial = got
			for i := range chunk.Columns {
				requireRoundTrip(t, chunk.Columns[i].Name, chunk.Columns[i], got.Columns[i])
			}
			continue
		}
		if len(got.Columns) != len(serial.Columns) {
			t.Fatalf("P=%d: column count %d != %d", workers, len(got.Columns), len(serial.Columns))
		}
		for i := range serial.Columns {
			requireIdentical(t, fmt.Sprintf("P=%d/%s", workers, serial.Columns[i].Name),
				serial.Columns[i], got.Columns[i])
		}
	}
}

// TestParallelScanEquivalence checks per-block predicate evaluation:
// counts match a ground truth computed from the original vectors
// (non-NULL rows only) at every worker count.
func TestParallelScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := genSpec{Rows: 3503, NullDensity: 0.25, RunLen: 12, Cardinality: 20}

	intCol := genIntColumnEquiv(rng, s)
	int64Col := genInt64ColumnEquiv(rng, s)
	dblCol := genDoubleColumnEquiv(rng, s)
	strCol := genStringColumnEquiv(rng, s)

	// Target each column's row 100 so the predicate always has matches.
	wantInt := intCol.Ints[100]
	wantInt64 := int64Col.Ints64[100]
	wantDbl := dblCol.Doubles[100]
	wantStr := strCol.Strings.At(100)

	truth := func(col *Column, match func(i int) bool) int {
		n := 0
		for i := 0; i < col.Len(); i++ {
			if !col.Nulls.IsNull(i) && match(i) {
				n++
			}
		}
		return n
	}
	truthInt := truth(&intCol, func(i int) bool { return intCol.Ints[i] == wantInt })
	truthInt64 := truth(&int64Col, func(i int) bool { return int64Col.Ints64[i] == wantInt64 })
	truthDbl := truth(&dblCol, func(i int) bool {
		return math.Float64bits(dblCol.Doubles[i]) == math.Float64bits(wantDbl)
	})
	truthStr := truth(&strCol, func(i int) bool { return strCol.Strings.At(i) == wantStr })

	copt := &Options{BlockSize: 1000}
	intData, err := CompressColumn(intCol, copt)
	if err != nil {
		t.Fatal(err)
	}
	int64Data, err := CompressColumn(int64Col, copt)
	if err != nil {
		t.Fatal(err)
	}
	dblData, err := CompressColumn(dblCol, copt)
	if err != nil {
		t.Fatal(err)
	}
	strData, err := CompressColumn(strCol, copt)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range equivWorkerCounts() {
		opt := &Options{BlockSize: 1000, Parallelism: workers}
		if got, err := Count(intData, IntEq(wantInt), opt); err != nil || got != truthInt {
			t.Fatalf("P=%d int: got %d/%v, want %d", workers, got, err, truthInt)
		}
		if got, err := Count(int64Data, Int64Eq(wantInt64), opt); err != nil || got != truthInt64 {
			t.Fatalf("P=%d int64: got %d/%v, want %d", workers, got, err, truthInt64)
		}
		if got, err := Count(dblData, DoubleEq(wantDbl), opt); err != nil || got != truthDbl {
			t.Fatalf("P=%d double: got %d/%v, want %d", workers, got, err, truthDbl)
		}
		if got, err := Count(strData, StringEq(wantStr), opt); err != nil || got != truthStr {
			t.Fatalf("P=%d string: got %d/%v, want %d", workers, got, err, truthStr)
		}
	}
}

// TestParallelVerifyReportEquality pins Verify's ordered-slot design:
// the deep-walk JSON report is byte-identical at every worker count,
// for clean and corrupted files alike.
func TestParallelVerifyReportEquality(t *testing.T) {
	chunk := equivChunk(31, 2501)
	cc, err := CompressChunk(chunk, &Options{BlockSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	clean := cc.EncodeFile()

	// A corrupted variant: flip one payload byte inside the file body so
	// block verdicts (not just the trailing CRC) diverge.
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)/2] ^= 0x40

	colData, err := CompressColumn(chunk.Columns[0], &Options{BlockSize: 1000})
	if err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{"chunk": clean, "chunk-corrupt": corrupt, "column": colData} {
		var baseline []byte
		for _, workers := range []int{1, 2, 8} {
			rep := Verify(data, &VerifyOptions{Deep: true, Parallelism: workers})
			js, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if baseline == nil {
				baseline = js
			} else if !bytes.Equal(baseline, js) {
				t.Fatalf("%s: verify report differs at P=%d:\n%s\nvs\n%s", name, workers, baseline, js)
			}
		}
	}
}

// TestParallelFirstErrorDeterminism pins the engine's min-index error
// contract end to end: with multiple corrupted blocks, decompression and
// scans surface the error the serial walk hits first — the lowest block
// index — at every worker count, every time.
func TestParallelFirstErrorDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	col := genIntColumnEquiv(rng, genSpec{Rows: 5000, NullDensity: 0, RunLen: 1, Cardinality: 100000})
	data, err := CompressColumn(col, &Options{BlockSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ParseColumnIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Blocks) != 10 {
		t.Fatalf("want 10 blocks, got %d", len(ix.Blocks))
	}

	// Corrupt blocks 3 and 7: the reported error must always be block 3's.
	corrupt := append([]byte(nil), data...)
	corrupt[ix.Blocks[3].DataOffset()+2] ^= 0xff
	corrupt[ix.Blocks[7].DataOffset()+2] ^= 0xff

	var wantDecode, wantScan string
	for trial := 0; trial < 20; trial++ {
		for _, workers := range []int{1, 2, 8} {
			opt := &Options{BlockSize: 500, Parallelism: workers}
			_, err := DecompressColumn(corrupt, opt)
			if err == nil {
				t.Fatalf("trial %d P=%d: corruption not detected", trial, workers)
			}
			if wantDecode == "" {
				wantDecode = err.Error()
			} else if err.Error() != wantDecode {
				t.Fatalf("trial %d P=%d: decode error %q, want %q", trial, workers, err, wantDecode)
			}
			_, err = Count(corrupt, IntEq(1), opt)
			if err == nil {
				t.Fatalf("trial %d P=%d: scan missed corruption", trial, workers)
			}
			if wantScan == "" {
				wantScan = err.Error()
			} else if err.Error() != wantScan {
				t.Fatalf("trial %d P=%d: scan error %q, want %q", trial, workers, err, wantScan)
			}
		}
	}
}

// waitForGoroutines polls until the goroutine count settles back to at
// most base (plus slack for runtime-owned goroutines) or the deadline
// passes.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > base %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelDecodeNoGoroutineLeaks drives every parallel decode path —
// chunk decompression, scans, deep verify — at worker counts above the
// CPU count and checks the pool goroutines are gone afterwards, on both
// success and error paths.
func TestParallelDecodeNoGoroutineLeaks(t *testing.T) {
	chunk := equivChunk(59, 2501)
	cc, err := CompressChunk(chunk, &Options{BlockSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	colData, err := CompressColumn(chunk.Columns[0], &Options{BlockSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), colData...)
	corrupt[len(corrupt)/2] ^= 1

	base := runtime.NumGoroutine()
	opt := &Options{BlockSize: 1000, Parallelism: 8}
	for i := 0; i < 20; i++ {
		if _, err := DecompressChunk(cc, opt); err != nil {
			t.Fatal(err)
		}
		if _, err := Count(colData, IntEq(7), opt); err != nil {
			t.Fatal(err)
		}
		if _, err := DecompressColumn(corrupt, opt); err == nil {
			t.Fatal("corruption not detected")
		}
		Verify(cc.EncodeFile(), &VerifyOptions{Deep: true, Parallelism: 8})
	}
	waitForGoroutines(t, base)
}

// TestCompressConcurrentCallers drives the pooled worker arenas the way a
// loaded server does: several goroutines compressing columns of every
// type at once, each arena passing from type to type between calls. Every
// output must equal the one a lone caller produced.
func TestCompressConcurrentCallers(t *testing.T) {
	spec := equivSpecs()[len(equivSpecs())-1]
	var cols []Column
	var want [][]byte
	for _, typ := range []Type{TypeInt, TypeInt64, TypeDouble, TypeString} {
		col := genColumnEquiv(rand.New(rand.NewSource(int64(typ)+77)), typ, spec)
		data, err := CompressColumn(col, &Options{BlockSize: 1000, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		cols, want = append(cols, col), append(want, data)
	}
	done := make(chan error)
	const callers = 8
	for g := 0; g < callers; g++ {
		go func(g int) {
			for i := 0; i < 12; i++ {
				k := (g + i) % len(cols)
				got, err := CompressColumn(cols[k], &Options{BlockSize: 1000, Parallelism: 1 + g%3})
				if err == nil && !bytes.Equal(got, want[k]) {
					err = fmt.Errorf("caller %d: %s column compressed differently under concurrency", g, cols[k].Type)
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < callers; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// mixedStringColumn builds a string column whose 1000-row blocks each
// take a different road through the string decoder — FSST, Dict with
// per-row codes, fused Dict+RLE, OneValue, plain, all-empty — and end in
// a partial block, with NULLs in three of them. The shapes it returns
// (root scheme, plus the code stream's scheme under a dictionary) are
// what TestParallelStringAssembly checks the compressor really chose, so
// the test cannot quietly stop covering a road.
func mixedStringColumn() (Column, []string) {
	rng := rand.New(rand.NewSource(99))
	var vals []string
	block := func(f func(i int) string) {
		for i := 0; i < 1000; i++ {
			vals = append(vals, f(i))
		}
	}
	block(func(int) string {
		return fmt.Sprintf("https://example.com/products/%d/reviews?page=%d", rng.Intn(1e6), rng.Intn(50))
	})
	block(func(int) string { return fmt.Sprintf("district-%02d-of-the-city", rng.Intn(40)) })
	block(func(i int) string { return []string{"01 BRONX", "03 QUEENS", "STATEN ISLAND", ""}[i/125%4] })
	block(func(int) string { return "one and the same" })
	block(func(int) string {
		b := make([]byte, 6+rng.Intn(5))
		rng.Read(b)
		return string(b)
	})
	block(func(int) string { return "" })
	for i := 0; i < 37; i++ {
		vals = append(vals, fmt.Sprintf("tail-%d", i%5))
	}
	col := StringColumn("mixed", vals)
	col.Nulls = NewNullMask()
	for _, r := range [][2]int{{500, 520}, {1100, 1400}, {2000, 2001}, {2900, 3000}} {
		for i := r[0]; i < r[1]; i++ {
			col.Nulls.SetNull(i)
		}
	}
	return col, []string{"FSST", "Dictionary/FastBP", "Dictionary/RLE", "OneValue", "Uncompressed", "OneValue", "Dictionary/FastBP"}
}

// TestParallelStringAssembly drives the string half of the shared decode
// assembly: every entry point materialises the mixed column identically
// at every worker count, block by block and as a whole, and the views
// path still agrees with them.
func TestParallelStringAssembly(t *testing.T) {
	col, wantShapes := mixedStringColumn()
	others := equivChunk(5, col.Len())
	chunk := &Chunk{Columns: []Column{others.Columns[0], col, others.Columns[2]}}
	copt := &Options{BlockSize: 1000}
	blocks, err := compressColumnBlocks(context.Background(), col, copt)
	if err != nil {
		t.Fatal(err)
	}
	// The selection algorithm never leaves a string block plain (the
	// cascaded lengths always beat raw offsets), so block 4 is taken from
	// a compression that was allowed nothing else.
	plain, err := compressColumnBlocks(context.Background(), col, &Options{BlockSize: 1000, StringSchemes: []Scheme{SchemeUncompressed}})
	if err != nil {
		t.Fatal(err)
	}
	blocks[4] = plain[4]
	data := assembleColumnFile(col, blocks, formatVersion)
	info, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	for b, blk := range info.Columns[0].Blocks {
		shape := blk.Data.Code.String()
		for _, child := range blk.Data.Children {
			if child.Role == "codes" {
				shape += "/" + child.Code.String()
			}
		}
		if shape != wantShapes[b] {
			t.Fatalf("block %d compressed as %s, the test needs %s", b, shape, wantShapes[b])
		}
	}
	cc, err := CompressChunk(chunk, copt)
	if err != nil {
		t.Fatal(err)
	}
	cc.Columns[1] = data
	ix, err := ParseColumnIndex(data)
	if err != nil {
		t.Fatal(err)
	}

	var serial Column
	for _, workers := range equivWorkerCounts() {
		label := fmt.Sprintf("P=%d", workers)
		for _, opt := range []*Options{{Parallelism: workers}, {Parallelism: workers, DisableFuseDictRLE: true}} {
			got, err := DecompressColumn(data, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if serial.Type != TypeString {
				serial = got
				requireRoundTrip(t, label, col, got)
			}
			requireIdentical(t, label, serial, got)
		}
		opt := &Options{Parallelism: workers}
		back, err := DecompressChunk(cc, opt)
		if err != nil {
			t.Fatalf("%s chunk: %v", label, err)
		}
		requireIdentical(t, label+" chunk", serial, back.Columns[1])
		for i := range chunk.Columns {
			requireRoundTrip(t, label+" chunk/"+chunk.Columns[i].Name, chunk.Columns[i], back.Columns[i])
		}

		views, nulls, err := DecompressStringViews(data, opt)
		if err != nil {
			t.Fatalf("%s views: %v", label, err)
		}
		if nulls.NullCount() != serial.Nulls.NullCount() {
			t.Fatalf("%s views: %d NULLs, want %d", label, nulls.NullCount(), serial.Nulls.NullCount())
		}
		for b, ref := range ix.Blocks {
			blk, err := ix.DecompressBlock(data, b, opt)
			if err != nil {
				t.Fatalf("%s block %d: %v", label, b, err)
			}
			requireExactVectors(t, label, blk)
			if blk.Len() != ref.Rows || views[b].Len() != ref.Rows {
				t.Fatalf("%s block %d: %d rows, %d views, want %d", label, b, blk.Len(), views[b].Len(), ref.Rows)
			}
			for i := 0; i < ref.Rows; i++ {
				row := ref.StartRow + i
				if want := serial.Strings.At(row); blk.Strings.At(i) != want || views[b].At(i) != want {
					t.Fatalf("%s block %d row %d: block %q view %q, want %q", label, b, i, blk.Strings.At(i), views[b].At(i), want)
				}
				if blk.Nulls.IsNull(i) != serial.Nulls.IsNull(row) {
					t.Fatalf("%s block %d row %d: NULL mismatch", label, b, i)
				}
			}
		}
	}
}

// TestDecodedColumnsOwnTheirMemory scribbles over everything a decode
// read or borrowed — the compressed file, and the pooled scratch arenas,
// by running other decodes through them — and expects the decoded columns
// not to notice.
func TestDecodedColumnsOwnTheirMemory(t *testing.T) {
	chunk := equivChunk(71, 2501)
	mixed, _ := mixedStringColumn()
	chunk.Columns = append(chunk.Columns, mixed)
	opt := &Options{BlockSize: 1000, Parallelism: 2}
	for _, orig := range chunk.Columns {
		data, err := CompressColumn(orig, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecompressColumn(data, opt)
		if err != nil {
			t.Fatal(err)
		}
		file := append([]byte(nil), data...)
		got, err := DecompressColumn(file, opt)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := ParseColumnIndex(file)
		if err != nil {
			t.Fatal(err)
		}
		block, err := ix.DecompressBlock(file, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range file {
			file[i] = 0xA5
		}
		for _, other := range chunk.Columns {
			otherData, err := CompressColumn(other, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecompressColumn(otherData, opt); err != nil {
				t.Fatal(err)
			}
		}
		requireIdentical(t, orig.Name, want, got)
		ref := ix.Blocks[1]
		for i := 0; i < ref.Rows; i++ {
			if valueAt(&block, i) != valueAt(&want, ref.StartRow+i) {
				t.Fatalf("%s block 1 row %d changed under the scribble", orig.Name, i)
			}
		}
	}
}

// TestDecodeBlockLengthMismatch hands decodeBlock an index that declares
// five rows fewer, then five rows more, than block 1's stream holds. Both
// are corrupt, and neither may touch a row outside block 1's range of the
// column: the rows of blocks 0 and 2 and the words either side of the
// vector keep their canary value.
func TestDecodeBlockLengthMismatch(t *testing.T) {
	const canary = 0x5A5A5A5A
	chunk := equivChunk(83, 3000)
	// The cascading schemes refuse a header that declares more rows than
	// the block may hold; bit-packed and plain streams only find out by
	// outgrowing the range, so they get a pass of their own.
	// They are NULL-free, or the NULL mask would give the short index away.
	leaves := []Scheme{SchemeUncompressed, SchemeFastBP}
	rng, spec := rand.New(rand.NewSource(89)), genSpec{Rows: 3000, RunLen: 1, Cardinality: 500}
	bare := []Column{genIntColumnEquiv(rng, spec), genInt64ColumnEquiv(rng, spec), genDoubleColumnEquiv(rng, spec)}
	for i, orig := range append(chunk.Columns, bare...) {
		copt := &Options{BlockSize: 1000}
		if i >= len(chunk.Columns) {
			copt.IntSchemes, copt.DoubleSchemes = leaves, leaves[:1]
		}
		data, err := CompressColumn(orig, copt)
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range []int{-5, 5} {
			ix, err := ParseColumnIndex(data)
			if err != nil {
				t.Fatal(err)
			}
			ix.Blocks[1].Rows += delta
			ix.Blocks[2].StartRow += delta
			rows := 3000 + delta
			d := newColumnDecode(ix, data, 0, 3, false)
			ints, ints64, doubles := make([]int32, rows+2), make([]int64, rows+2), make([]float64, rows+2)
			for i := 0; i < rows+2; i++ {
				ints[i], ints64[i], doubles[i] = canary, canary, canary
			}
			d.alloc.Do(func() {
				d.col.Ints, d.col.Ints64, d.col.Doubles = ints[1:rows+1], ints64[1:rows+1], doubles[1:rows+1]
			})
			err = d.decodeBlock(1, (*Options)(nil).coreConfig(), new(core.Scratch), nil)
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("%s: %+d rows: err = %v, want corrupt", orig.Type, delta, err)
			}
			lo, hi := 1+1000, 1+2000+delta // block 1's range of the canary-padded vectors
			for i := 0; i < rows+2; i++ {
				if (i < lo || i >= hi) && (ints[i] != canary || ints64[i] != canary || doubles[i] != canary) {
					t.Fatalf("%s: %+d rows: row %d outside block 1 was written", orig.Type, delta, i-1)
				}
			}
			if d.col.Strings.Len() != 0 {
				t.Fatalf("%s: %+d rows: strings were laid out for a corrupt block", orig.Type, delta)
			}
		}
	}
}
