package query

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"btrblocks"
	"btrblocks/internal/roaring"
)

// TestAggAndFoldsPacked runs the shape of the benchmark's q_and_agg plan —
// in(region, three names) AND range(seq), then sum/min/max(amount) — over
// a dictionary string column, a FastBP int column and a Pseudodecimal
// double column, with and without NULLs in amount. The answers must match
// the reference, and the fold must run on the compressed amount blocks
// under the selection: no aggregate decodes.
func TestAggAndFoldsPacked(t *testing.T) {
	const rows, blockSize = 4 * 8192, 8192
	names, region, seq, amount := andAggTable(rows, 41)
	copt := &btrblocks.Options{BlockSize: blockSize}
	for _, nullEvery := range []int{0, 16} {
		amountCol := btrblocks.DoubleColumn("amount", amount)
		nulls := map[int]bool{}
		if nullEvery > 0 {
			amountCol.Nulls = btrblocks.NewNullMask()
			for i := 0; i < rows; i += nullEvery {
				amountCol.Nulls.SetNull(i)
				nulls[i] = true
			}
		}
		src := MemSource{
			"region": buildQueryCol(t, btrblocks.StringColumn("region", region), copt),
			"seq":    buildQueryCol(t, btrblocks.IntColumn("seq", seq), copt),
			"amount": buildQueryCol(t, amountCol, copt),
		}
		for name, want := range map[string]btrblocks.Scheme{"region": btrblocks.SchemeDict, "seq": btrblocks.SchemeFastBP, "amount": btrblocks.SchemePDE} {
			for b, ref := range src[name].Index.Blocks {
				if ref.Scheme != want {
					t.Fatalf("%s block %d is %v, want %v", name, b, ref.Scheme, want)
				}
			}
		}
		refCols := map[string]*refCol{
			"region": {typ: btrblocks.TypeString, str: region, null: map[int]bool{}, rows: rows},
			"seq":    {typ: btrblocks.TypeInt, ints: seq, null: map[int]bool{}, rows: rows},
			"amount": {typ: btrblocks.TypeDouble, dbl: amount, null: nulls, rows: rows},
		}
		e := &Executor{Source: src, Options: copt}
		for h := 0; h < 8; h++ {
			r0, a := h*5%24, int32(5_000_000+h*3000)
			plan := &Plan{
				Filter: &Node{Op: "and", Children: []*Node{
					{Op: "in", Column: "region", Values: []json.RawMessage{jStr(names[r0]), jStr(names[(r0+7)%24]), jStr(names[(r0+13)%24])}},
					{Op: "range", Column: "seq", Lo: jNum(a), Hi: jNum(a + rows/4)},
				}},
				Aggregates: []AggSpec{{Op: "sum", Column: "amount"}, {Op: "min", Column: "amount"}, {Op: "max", Column: "amount"}},
				Return:     ReturnBitmap,
			}
			label := fmt.Sprintf("nulls 1/%d, variant %d", nullEvery, h)
			checkPlan(t, e, plan, refCols, rows, blockSize, label)
			res, err := e.Run(t.Context(), plan)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if p := res.Stats.Paths; p.AggDecoded != 0 || p.AggFast == 0 || p.Decoded != 0 {
				t.Fatalf("%s: paths %+v: the fold must run on the compressed blocks", label, p)
			}
		}
	}
}

// BenchmarkAndAgg times the q_and_agg plan of the repository benchmark
// in process, on its table shape (512,000 rows, eight 64,000-row blocks,
// one core), over eight literal variants: "plan" runs it whole, "fold"
// only the sum/min/max fold of amount under each variant's selection.
func BenchmarkAndAgg(b *testing.B) {
	const rows = 512_000
	names, region, seq, amount := andAggTable(rows, 1)
	copt := &btrblocks.Options{Parallelism: 1}
	src := MemSource{}
	for name, col := range map[string]btrblocks.Column{
		"region": btrblocks.StringColumn("region", region),
		"seq":    btrblocks.IntColumn("seq", seq),
		"amount": btrblocks.DoubleColumn("amount", amount),
	} {
		data, err := btrblocks.CompressColumn(col, copt)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := btrblocks.ParseColumnIndex(data)
		if err != nil {
			b.Fatal(err)
		}
		src[name] = &Col{Index: ix, Data: data}
	}
	e := &Executor{Source: src, Options: copt}
	var plans []*Plan
	var sels []btrblocks.Selection
	for h := uint64(0); h < 8; h++ {
		r0, a := int(h*5%24), int32(5_000_000+h*37_000)
		filter := &Node{Op: "and", Children: []*Node{
			{Op: "in", Column: "region", Values: []json.RawMessage{jStr(names[r0]), jStr(names[(r0+7)%24]), jStr(names[(r0+13)%24])}},
			{Op: "range", Column: "seq", Lo: jNum(a), Hi: jNum(a + rows/4)},
		}}
		plans = append(plans, &Plan{Filter: filter,
			Aggregates: []AggSpec{{Op: "sum", Column: "amount"}, {Op: "min", Column: "amount"}, {Op: "max", Column: "amount"}}})
		res, err := e.Run(b.Context(), &Plan{Filter: filter, Return: ReturnBitmap})
		if err != nil {
			b.Fatal(err)
		}
		bm, _, err := roaring.FromBytes(res.Bitmap)
		if err != nil {
			b.Fatal(err)
		}
		sels = append(sels, btrblocks.SelectionFromBitmap(bm))
	}
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(b.Context(), plans[i%len(plans)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fold", func(b *testing.B) {
		b.ReportAllocs()
		am := src["amount"]
		for i := 0; i < b.N; i++ {
			if _, _, err := am.Index.AggregateBlocks(am.Data, nil, &sels[i%len(sels)], copt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// andAggTable generates the benchmark's query table: 24 region names
// drawn at random, near-sorted ids, and amounts on a 0.25 grid.
func andAggTable(rows int, seed int64) (names, region []string, seq []int32, amount []float64) {
	rng := rand.New(rand.NewSource(seed))
	names = make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("region-%02d", i)
	}
	region, seq, amount = make([]string, rows), make([]int32, rows), make([]float64, rows)
	for i := range region {
		region[i] = names[rng.Intn(len(names))]
		seq[i] = 5_000_000 + int32(i) + rng.Int31n(64)
		amount[i] = float64(rng.Intn(400_000)) / 4
	}
	return names, region, seq, amount
}
