package query

// Differential oracle for the query engine: seeded generators (shared
// with the root parallel-equivalence harness via internal/testgen) sweep
// column shapes — 4 types × NULL density × run length × cardinality ×
// block-straddling sizes — and every (shape, plan) pair asserts the
// executor's selection vector is bit-identical to a naive evaluate-on-
// original-values reference, and its aggregates bit-identical to a
// per-block fold merged in block order (the documented Aggregate
// contract). Plans run at Parallelism 1 and GOMAXPROCS; restricted-
// scheme variants additionally FAIL if the compressed-domain path for
// the restricted scheme never fired — proof the fast paths are actually
// exercised, not silently falling back to decode-then-filter.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"btrblocks"
	"btrblocks/internal/roaring"
	"btrblocks/internal/testgen"
	"btrblocks/metadata"
)

// refCol is the oracle's view of a column: the original pre-compression
// values plus the NULL positions. Predicates never match NULL slots, and
// non-NULL slots round-trip exactly, so the original values are the
// ground truth the compressed evaluation must reproduce.
type refCol struct {
	typ  btrblocks.Type
	ints []int32
	i64  []int64
	dbl  []float64
	str  []string
	null map[int]bool
	rows int
}

func nullSet(nulls []int) map[int]bool {
	m := make(map[int]bool, len(nulls))
	for _, i := range nulls {
		m[i] = true
	}
	return m
}

// genRefCol draws one column shape and returns both the library Column
// and the oracle's reference view.
func genRefCol(rng *rand.Rand, typ btrblocks.Type, s testgen.Spec, name string) (btrblocks.Column, *refCol) {
	rc := &refCol{typ: typ, rows: s.Rows}
	var col btrblocks.Column
	var nulls []int
	switch typ {
	case btrblocks.TypeInt:
		rc.ints, nulls = testgen.IntValues(rng, s)
		col = btrblocks.IntColumn(name, rc.ints)
	case btrblocks.TypeInt64:
		rc.i64, nulls = testgen.Int64Values(rng, s)
		col = btrblocks.Int64Column(name, rc.i64)
	case btrblocks.TypeDouble:
		rc.dbl, nulls = testgen.DoubleValues(rng, s)
		col = btrblocks.DoubleColumn(name, rc.dbl)
	default:
		rc.str, nulls = testgen.StringValues(rng, s)
		col = btrblocks.StringColumn(name, rc.str)
	}
	rc.null = nullSet(nulls)
	for _, i := range nulls {
		if col.Nulls == nil {
			col.Nulls = btrblocks.NewNullMask()
		}
		col.Nulls.SetNull(i)
	}
	return col, rc
}

// buildQueryCol compresses a column and wraps it (with its metadata
// sidecar) as a queryable Col.
func buildQueryCol(t *testing.T, col btrblocks.Column, copt *btrblocks.Options) *Col {
	t.Helper()
	data, err := btrblocks.CompressColumn(col, copt)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	ix, err := btrblocks.ParseColumnIndex(data)
	if err != nil {
		t.Fatalf("parse index: %v", err)
	}
	m := metadata.Build(col, copt)
	return &Col{Index: ix, Data: data, Meta: &m}
}

// --- reference evaluation (independent of the executor's bind path) ---

func refLeafMatch(t *testing.T, n *Node, rc *refCol, i int) bool {
	t.Helper()
	fail := func(err error) bool { t.Fatalf("oracle literal parse: %v", err); return false }
	switch n.Op {
	case "notnull":
		return true
	case "eq":
		switch rc.typ {
		case btrblocks.TypeInt:
			v, err := parseInt32Lit(n.Value, "ref")
			if err != nil {
				return fail(err)
			}
			return rc.ints[i] == v
		case btrblocks.TypeInt64:
			v, err := parseInt64Lit(n.Value, "ref")
			if err != nil {
				return fail(err)
			}
			return rc.i64[i] == v
		case btrblocks.TypeDouble:
			v, err := parseDoubleLit(n.Value, "ref")
			if err != nil {
				return fail(err)
			}
			return math.Float64bits(rc.dbl[i]) == math.Float64bits(v)
		default:
			v, err := parseStringLit(n.Value, "ref")
			if err != nil {
				return fail(err)
			}
			return rc.str[i] == v
		}
	case "range":
		switch rc.typ {
		case btrblocks.TypeInt:
			lo, hi := int32(math.MinInt32), int32(math.MaxInt32)
			if n.Lo != nil {
				lo, _ = parseInt32Lit(n.Lo, "ref")
			}
			if n.Hi != nil {
				hi, _ = parseInt32Lit(n.Hi, "ref")
			}
			return rc.ints[i] >= lo && rc.ints[i] <= hi
		case btrblocks.TypeInt64:
			lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
			if n.Lo != nil {
				lo, _ = parseInt64Lit(n.Lo, "ref")
			}
			if n.Hi != nil {
				hi, _ = parseInt64Lit(n.Hi, "ref")
			}
			return rc.i64[i] >= lo && rc.i64[i] <= hi
		case btrblocks.TypeDouble:
			lo, hi := math.Inf(-1), math.Inf(1)
			if n.Lo != nil {
				lo, _ = parseDoubleLit(n.Lo, "ref")
			}
			if n.Hi != nil {
				hi, _ = parseDoubleLit(n.Hi, "ref")
			}
			return rc.dbl[i] >= lo && rc.dbl[i] <= hi
		default:
			lo := ""
			if n.Lo != nil {
				lo, _ = parseStringLit(n.Lo, "ref")
			}
			hi, _ := parseStringLit(n.Hi, "ref")
			return rc.str[i] >= lo && rc.str[i] <= hi
		}
	case "in":
		for _, raw := range n.Values {
			probe := &Node{Op: "eq", Column: n.Column, Value: raw}
			if refLeafMatch(t, probe, rc, i) {
				return true
			}
		}
		return false
	}
	t.Fatalf("oracle: unknown leaf op %q", n.Op)
	return false
}

func refEval(t *testing.T, n *Node, cols map[string]*refCol, rows int) *roaring.Bitmap {
	t.Helper()
	switch n.Op {
	case "and":
		out := refEval(t, n.Children[0], cols, rows)
		for _, c := range n.Children[1:] {
			out = roaring.And(out, refEval(t, c, cols, rows))
		}
		return out
	case "or":
		out := refEval(t, n.Children[0], cols, rows)
		for _, c := range n.Children[1:] {
			out = roaring.Or(out, refEval(t, c, cols, rows))
		}
		return out
	default:
		rc := cols[n.Column]
		out := roaring.New()
		for i := 0; i < rows; i++ {
			if rc.null[i] {
				continue
			}
			if refLeafMatch(t, n, rc, i) {
				out.Add(uint32(i))
			}
		}
		return out
	}
}

// refAggregate folds the reference values per block and merges the
// partials in block order — the executor's documented contract, so
// double Sum/Min/Max must agree bit for bit.
func refAggregate(rc *refCol, sel *roaring.Bitmap, blockSize int) btrblocks.Aggregate {
	total := btrblocks.Aggregate{Type: rc.typ}
	for lo := 0; lo < rc.rows; lo += blockSize {
		hi := lo + blockSize
		if hi > rc.rows {
			hi = rc.rows
		}
		part := btrblocks.Aggregate{Type: rc.typ}
		for i := lo; i < hi; i++ {
			if rc.null[i] || (sel != nil && !sel.Contains(uint32(i))) {
				continue
			}
			switch rc.typ {
			case btrblocks.TypeInt:
				part.FoldInt(rc.ints[i])
			case btrblocks.TypeInt64:
				part.FoldInt64(rc.i64[i])
			case btrblocks.TypeDouble:
				part.FoldDouble(rc.dbl[i])
			default:
				part.FoldString([]byte(rc.str[i]))
			}
		}
		total.Merge(part)
	}
	return total
}

// --- plan generation per type ---

func jNum(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func jStr(s string) json.RawMessage { return jNum(s) }

// sampleValues returns up to k distinct non-NULL literal encodings drawn
// from the column (finite doubles only — NaN gets its own plan).
func sampleValues(rc *refCol, k int) []json.RawMessage {
	seen := make(map[string]bool)
	var out []json.RawMessage
	for i := 0; i < rc.rows && len(out) < k; i++ {
		if rc.null[i] {
			continue
		}
		var raw json.RawMessage
		switch rc.typ {
		case btrblocks.TypeInt:
			raw = jNum(rc.ints[i])
		case btrblocks.TypeInt64:
			raw = jNum(rc.i64[i])
		case btrblocks.TypeDouble:
			if math.IsNaN(rc.dbl[i]) {
				continue
			}
			raw = jNum(rc.dbl[i])
		default:
			raw = jStr(rc.str[i])
		}
		if !seen[string(raw)] {
			seen[string(raw)] = true
			out = append(out, raw)
		}
	}
	return out
}

// missValue is a literal guaranteed absent from the generated pools.
func missValue(typ btrblocks.Type) json.RawMessage {
	switch typ {
	case btrblocks.TypeInt:
		return jNum(int32(-7)) // pools are non-negative
	case btrblocks.TypeInt64:
		return jNum(int64(12345)) // pools start at 1.6e12
	case btrblocks.TypeDouble:
		return jNum(-123456.5) // pools are non-negative two-decimal prices
	default:
		return jStr("zzz-not-generated")
	}
}

func rawLess(typ btrblocks.Type, a, b json.RawMessage) bool {
	switch typ {
	case btrblocks.TypeInt:
		x, _ := parseInt32Lit(a, "t")
		y, _ := parseInt32Lit(b, "t")
		return x < y
	case btrblocks.TypeInt64:
		x, _ := parseInt64Lit(a, "t")
		y, _ := parseInt64Lit(b, "t")
		return x < y
	case btrblocks.TypeDouble:
		x, _ := parseDoubleLit(a, "t")
		y, _ := parseDoubleLit(b, "t")
		return x < y
	default:
		x, _ := parseStringLit(a, "t")
		y, _ := parseStringLit(b, "t")
		return x < y
	}
}

// oraclePlans builds the predicate sweep for a column "a" of the given
// type with a companion int column "b" (for multi-column AND/OR).
func oraclePlans(rcA, rcB *refCol) []*Plan {
	typ := rcA.typ
	vs := sampleValues(rcA, 3)
	bs := sampleValues(rcB, 2)
	leafNotNull := &Node{Op: "notnull", Column: "a"}
	var plans []*Plan
	add := func(f *Node) { plans = append(plans, &Plan{Filter: f, Return: ReturnBitmap, Rows: true}) }

	add(leafNotNull)
	add(&Node{Op: "eq", Column: "a", Value: missValue(typ)})
	if typ != btrblocks.TypeString {
		// An empty range (lo > hi) must select nothing everywhere.
		add(&Node{Op: "range", Column: "a", Lo: jNum(5), Hi: jNum(-5)})
	}
	if typ == btrblocks.TypeDouble {
		// Bit-exact NaN probe: the canonical NaN never matches the
		// generator's payload NaN, and range bounds never match NaN rows.
		add(&Node{Op: "eq", Column: "a", Value: jStr("NaN")})
	}
	if len(vs) > 0 {
		add(&Node{Op: "eq", Column: "a", Value: vs[0]})
		inVals := append(append([]json.RawMessage{}, vs...), missValue(typ))
		add(&Node{Op: "in", Column: "a", Values: inVals})
		lo, hi := vs[0], vs[len(vs)-1]
		if rawLess(typ, hi, lo) {
			lo, hi = hi, lo
		}
		add(&Node{Op: "range", Column: "a", Lo: lo, Hi: hi})
		if typ != btrblocks.TypeString {
			// Open-ended range (no upper bound).
			add(&Node{Op: "range", Column: "a", Lo: lo})
		}
		if len(bs) > 0 {
			bLo, bHi := bs[0], bs[len(bs)-1]
			if rawLess(btrblocks.TypeInt, bHi, bLo) {
				bLo, bHi = bHi, bLo
			}
			add(&Node{Op: "and", Children: []*Node{
				{Op: "range", Column: "a", Lo: lo, Hi: hi},
				{Op: "range", Column: "b", Lo: bLo, Hi: bHi},
			}})
			add(&Node{Op: "or", Children: []*Node{
				{Op: "eq", Column: "a", Value: vs[0]},
				{Op: "eq", Column: "b", Value: bs[0]},
			}})
			add(&Node{Op: "and", Children: []*Node{
				{Op: "notnull", Column: "b"},
				{Op: "in", Column: "a", Values: inVals},
			}})
		}
	}
	// Aggregates over a filtered selection, plus a filter-free fold.
	aggs := []AggSpec{{Op: "count", Column: "a"}, {Op: "min", Column: "a"}, {Op: "max", Column: "a"}}
	if typ != btrblocks.TypeString {
		aggs = append(aggs, AggSpec{Op: "sum", Column: "a"})
	}
	if len(vs) > 0 {
		lo, hi := vs[0], vs[len(vs)-1]
		if rawLess(typ, hi, lo) {
			lo, hi = hi, lo
		}
		plans = append(plans, &Plan{
			Filter:     &Node{Op: "range", Column: "a", Lo: lo, Hi: hi},
			Aggregates: aggs,
			Return:     ReturnBitmap,
		})
	}
	plans = append(plans, &Plan{Aggregates: aggs, Return: ReturnBitmap})
	return plans
}

// checkPlan round-trips the plan through JSON (the same decoder the
// HTTP endpoint uses), executes it, and asserts selection and aggregates
// against the reference.
func checkPlan(t *testing.T, e *Executor, plan *Plan, refCols map[string]*refCol, rows, blockSize int, label string) {
	t.Helper()
	raw, err := json.Marshal(plan)
	if err != nil {
		t.Fatalf("%s: marshal plan: %v", label, err)
	}
	parsed, err := ParsePlan(raw)
	if err != nil {
		t.Fatalf("%s: ParsePlan(%s): %v", label, raw, err)
	}
	res, err := e.Run(t.Context(), parsed)
	if err != nil {
		t.Fatalf("%s: run %s: %v", label, raw, err)
	}

	var want *roaring.Bitmap
	if plan.Filter != nil {
		want = refEval(t, plan.Filter, refCols, rows)
	} else {
		want = roaring.New()
		want.AddRange(0, uint32(rows))
	}
	if res.Rows != rows {
		t.Fatalf("%s: rows = %d, want %d (plan %s)", label, res.Rows, rows, raw)
	}
	if res.Matched != int64(want.Cardinality()) {
		t.Fatalf("%s: matched = %d, want %d (plan %s)", label, res.Matched, want.Cardinality(), raw)
	}
	got, used, err := roaring.FromBytes(res.Bitmap)
	if err != nil || used != len(res.Bitmap) {
		t.Fatalf("%s: bad result bitmap: %v", label, err)
	}
	if !got.Equals(want) {
		t.Fatalf("%s: selection mismatch for plan %s: got %d rows, want %d",
			label, raw, got.Cardinality(), want.Cardinality())
	}
	if plan.Rows {
		ids := want.ToArray()
		if len(ids) > DefaultRowLimit {
			ids = ids[:DefaultRowLimit]
		}
		if len(res.RowIDs) != len(ids) {
			t.Fatalf("%s: row ids length %d, want %d", label, len(res.RowIDs), len(ids))
		}
		for i := range ids {
			if res.RowIDs[i] != ids[i] {
				t.Fatalf("%s: row id[%d] = %d, want %d", label, i, res.RowIDs[i], ids[i])
			}
		}
	}
	if len(plan.Aggregates) > 0 {
		var sel *roaring.Bitmap
		if plan.Filter != nil {
			sel = want
		}
		for i, spec := range plan.Aggregates {
			rc := refCols[spec.Column]
			refAgg := refAggregate(rc, sel, blockSize)
			wantRes := renderAgg(spec, rc.typ, refAgg, refAgg.Count)
			if res.Aggregates[i] != wantRes {
				t.Fatalf("%s: aggregate %s(%s) = %+v, want %+v (plan %s)",
					label, spec.Op, spec.Column, res.Aggregates[i], wantRes, raw)
			}
		}
	}
}

// TestOracleSweep is the main differential property: every generated
// shape × plan × worker count agrees exactly with the reference.
func TestOracleSweep(t *testing.T) {
	const blockSize = 1000
	types := []btrblocks.Type{btrblocks.TypeInt, btrblocks.TypeInt64, btrblocks.TypeDouble, btrblocks.TypeString}
	workers := []int{1, runtime.GOMAXPROCS(0)}
	for _, typ := range types {
		for si, spec := range testgen.Specs() {
			label := fmt.Sprintf("%v/%s", typ, spec.Label())
			rng := rand.New(rand.NewSource(int64(7700 + 100*int(typ) + si)))
			colA, rcA := genRefCol(rng, typ, spec, "a")
			bSpec := testgen.Spec{Rows: spec.Rows, NullDensity: 0.15, RunLen: 8, Cardinality: 50}
			colB, rcB := genRefCol(rng, btrblocks.TypeInt, bSpec, "b")
			copt := &btrblocks.Options{BlockSize: blockSize}
			src := MemSource{
				"a": buildQueryCol(t, colA, copt),
				"b": buildQueryCol(t, colB, copt),
			}
			refCols := map[string]*refCol{"a": rcA, "b": rcB}
			for _, w := range workers {
				e := &Executor{Source: src, Options: &btrblocks.Options{BlockSize: blockSize, Parallelism: w}}
				for _, plan := range oraclePlans(rcA, rcB) {
					checkPlan(t, e, plan, refCols, spec.Rows, blockSize, fmt.Sprintf("%s/w%d", label, w))
				}
			}
		}
	}
}

// TestOracleRestrictedSchemes pins each compressed-domain path: the
// column is compressed under a restricted scheme pool shaped so the
// picker chooses that scheme, and the test FAILS unless the matching
// fast-path counter fired — silently decoding everything would pass the
// differential check but not this one.
func TestOracleRestrictedSchemes(t *testing.T) {
	const rows = 3000
	const blockSize = 1000
	rng := rand.New(rand.NewSource(4242))

	constant := make([]int32, rows)
	for i := range constant {
		constant[i] = 42
	}
	runsVals := make([]int32, rows)
	for i := 0; i < rows; {
		v := int32(rng.Intn(5)) * 100
		l := 1 + rng.Intn(80)
		for j := 0; j < l && i < rows; j++ {
			runsVals[i] = v
			i++
		}
	}
	dictVals := make([]int32, rows)
	for i := range dictVals {
		dictVals[i] = int32(rng.Intn(50)) * 7
	}
	skewVals := make([]int32, rows)
	for i := range skewVals {
		if rng.Intn(100) < 92 {
			skewVals[i] = 7
		} else {
			skewVals[i] = int32(1000 + rng.Intn(100000))
		}
	}
	wideVals := make([]int32, rows)
	for i := range wideVals {
		wideVals[i] = int32(rng.Intn(1 << 20))
	}
	strVals := make([]string, rows)
	for i := range strVals {
		strVals[i] = fmt.Sprintf("node-%02d", rng.Intn(20))
	}
	// The int64 rows reuse the int32 shapes out of int32's reach.
	widen := func(vals []int32) []int64 {
		out := make([]int64, len(vals))
		for i, v := range vals {
			out[i] = int64(v) << 33
		}
		return out
	}

	cases := []struct {
		name  string
		col   btrblocks.Column
		rc    *refCol
		copt  *btrblocks.Options
		leaf  *Node
		fired func(Stats) int64
		// aggFast: this scheme has a compressed-domain aggregate fold
		// (OneValue/RLE/Dict/Frequency do; FOR/bitpack decodes by design).
		aggFast bool
	}{
		{
			name:    "onevalue",
			aggFast: true,
			col:     btrblocks.IntColumn("a", constant),
			rc:      &refCol{typ: btrblocks.TypeInt, ints: constant, null: map[int]bool{}, rows: rows},
			copt:    &btrblocks.Options{BlockSize: blockSize, IntSchemes: []btrblocks.Scheme{btrblocks.SchemeOneValue, btrblocks.SchemeUncompressed}},
			leaf:    &Node{Op: "eq", Column: "a", Value: jNum(int32(42))},
			fired:   func(s Stats) int64 { return s.Paths.OneValue },
		},
		{
			name:    "rle",
			aggFast: true,
			col:     btrblocks.IntColumn("a", runsVals),
			rc:      &refCol{typ: btrblocks.TypeInt, ints: runsVals, null: map[int]bool{}, rows: rows},
			copt:    &btrblocks.Options{BlockSize: blockSize, IntSchemes: []btrblocks.Scheme{btrblocks.SchemeRLE, btrblocks.SchemeUncompressed}},
			leaf:    &Node{Op: "range", Column: "a", Lo: jNum(int32(100)), Hi: jNum(int32(300))},
			fired:   func(s Stats) int64 { return s.Paths.RLE },
		},
		{
			name:    "dict",
			aggFast: true,
			col:     btrblocks.IntColumn("a", dictVals),
			rc:      &refCol{typ: btrblocks.TypeInt, ints: dictVals, null: map[int]bool{}, rows: rows},
			copt:    &btrblocks.Options{BlockSize: blockSize, IntSchemes: []btrblocks.Scheme{btrblocks.SchemeDict, btrblocks.SchemeFastBP, btrblocks.SchemeUncompressed}},
			leaf:    &Node{Op: "in", Column: "a", Values: []json.RawMessage{jNum(int32(7)), jNum(int32(14)), jNum(int32(343))}},
			fired:   func(s Stats) int64 { return s.Paths.Dict },
		},
		{
			name:    "frequency",
			aggFast: true,
			col:     btrblocks.IntColumn("a", skewVals),
			rc:      &refCol{typ: btrblocks.TypeInt, ints: skewVals, null: map[int]bool{}, rows: rows},
			copt:    &btrblocks.Options{BlockSize: blockSize, IntSchemes: []btrblocks.Scheme{btrblocks.SchemeFrequency, btrblocks.SchemeUncompressed}},
			leaf:    &Node{Op: "eq", Column: "a", Value: jNum(int32(7))},
			fired:   func(s Stats) int64 { return s.Paths.Frequency },
		},
		{
			name:  "fastbp",
			col:   btrblocks.IntColumn("a", wideVals),
			rc:    &refCol{typ: btrblocks.TypeInt, ints: wideVals, null: map[int]bool{}, rows: rows},
			copt:  &btrblocks.Options{BlockSize: blockSize, IntSchemes: []btrblocks.Scheme{btrblocks.SchemeFastBP, btrblocks.SchemeUncompressed}},
			leaf:  &Node{Op: "range", Column: "a", Lo: jNum(int32(0)), Hi: jNum(int32(5000))},
			fired: func(s Stats) int64 { return s.Paths.FORScanned + s.Paths.FORSkipped },
		},
		{
			name:    "int64-onevalue",
			aggFast: true,
			col:     btrblocks.Int64Column("a", widen(constant)),
			rc:      &refCol{typ: btrblocks.TypeInt64, i64: widen(constant), null: map[int]bool{}, rows: rows},
			copt:    &btrblocks.Options{BlockSize: blockSize, IntSchemes: []btrblocks.Scheme{btrblocks.SchemeOneValue, btrblocks.SchemeUncompressed}},
			leaf:    &Node{Op: "eq", Column: "a", Value: jNum(int64(42) << 33)},
			fired:   func(s Stats) int64 { return s.Paths.OneValue },
		},
		{
			name:    "int64-rle",
			aggFast: true,
			col:     btrblocks.Int64Column("a", widen(runsVals)),
			rc:      &refCol{typ: btrblocks.TypeInt64, i64: widen(runsVals), null: map[int]bool{}, rows: rows},
			copt:    &btrblocks.Options{BlockSize: blockSize, IntSchemes: []btrblocks.Scheme{btrblocks.SchemeRLE, btrblocks.SchemeUncompressed}},
			leaf:    &Node{Op: "range", Column: "a", Lo: jNum(int64(100) << 33), Hi: jNum(int64(300) << 33)},
			fired:   func(s Stats) int64 { return s.Paths.RLE },
		},
		{
			name:    "int64-dict",
			aggFast: true,
			col:     btrblocks.Int64Column("a", widen(dictVals)),
			rc:      &refCol{typ: btrblocks.TypeInt64, i64: widen(dictVals), null: map[int]bool{}, rows: rows},
			copt:    &btrblocks.Options{BlockSize: blockSize, IntSchemes: []btrblocks.Scheme{btrblocks.SchemeDict, btrblocks.SchemeFastBP, btrblocks.SchemeUncompressed}},
			leaf:    &Node{Op: "in", Column: "a", Values: []json.RawMessage{jNum(int64(7) << 33), jNum(int64(14) << 33), jNum(int64(343) << 33)}},
			fired:   func(s Stats) int64 { return s.Paths.Dict },
		},
		{
			name:    "int64-frequency",
			aggFast: true,
			col:     btrblocks.Int64Column("a", widen(skewVals)),
			rc:      &refCol{typ: btrblocks.TypeInt64, i64: widen(skewVals), null: map[int]bool{}, rows: rows},
			copt:    &btrblocks.Options{BlockSize: blockSize, IntSchemes: []btrblocks.Scheme{btrblocks.SchemeFrequency, btrblocks.SchemeUncompressed}},
			leaf:    &Node{Op: "eq", Column: "a", Value: jNum(int64(7) << 33)},
			fired:   func(s Stats) int64 { return s.Paths.Frequency },
		},
		{
			name:  "int64-fastbp",
			col:   btrblocks.Int64Column("a", widen(wideVals)),
			rc:    &refCol{typ: btrblocks.TypeInt64, i64: widen(wideVals), null: map[int]bool{}, rows: rows},
			copt:  &btrblocks.Options{BlockSize: blockSize, IntSchemes: []btrblocks.Scheme{btrblocks.SchemeFastBP, btrblocks.SchemeUncompressed}},
			leaf:  &Node{Op: "range", Column: "a", Lo: jNum(int64(0)), Hi: jNum(int64(5000) << 33)},
			fired: func(s Stats) int64 { return s.Paths.FORScanned + s.Paths.FORSkipped },
		},
		{
			name:    "string-dict",
			aggFast: true,
			col:     btrblocks.StringColumn("a", strVals),
			rc:      &refCol{typ: btrblocks.TypeString, str: strVals, null: map[int]bool{}, rows: rows},
			copt:    &btrblocks.Options{BlockSize: blockSize, StringSchemes: []btrblocks.Scheme{btrblocks.SchemeDict, btrblocks.SchemeUncompressed}},
			leaf:    &Node{Op: "eq", Column: "a", Value: jStr("node-07")},
			fired:   func(s Stats) int64 { return s.Paths.Dict },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := MemSource{"a": buildQueryCol(t, tc.col, tc.copt)}
			// Query without metadata pruning so every block reaches the
			// kernel — the fired-path assertion must not be satisfied (or
			// dodged) by pruning.
			src["a"].Meta = nil
			e := &Executor{Source: src, Options: &btrblocks.Options{BlockSize: blockSize}}
			plan := &Plan{Filter: tc.leaf, Return: ReturnBitmap}
			raw, _ := json.Marshal(plan)
			parsed, err := ParsePlan(raw)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			res, err := e.Run(t.Context(), parsed)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			want := refEval(t, tc.leaf, map[string]*refCol{"a": tc.rc}, rows)
			got, _, err := roaring.FromBytes(res.Bitmap)
			if err != nil {
				t.Fatalf("bitmap: %v", err)
			}
			if !got.Equals(want) {
				t.Fatalf("selection mismatch: got %d want %d", got.Cardinality(), want.Cardinality())
			}
			if n := tc.fired(res.Stats); n == 0 {
				t.Fatalf("restricted scheme %s: compressed-domain path never fired (stats %+v)", tc.name, res.Stats.Paths)
			}
			// The filter-free aggregate over the same NULL-free column must
			// take the compressed-domain fold.
			aggPlan := &Plan{Aggregates: []AggSpec{{Op: "sum", Column: "a"}, {Op: "min", Column: "a"}, {Op: "max", Column: "a"}}}
			if tc.rc.typ == btrblocks.TypeString {
				aggPlan.Aggregates = aggPlan.Aggregates[1:]
			}
			ares, err := e.Run(t.Context(), aggPlan)
			if err != nil {
				t.Fatalf("agg run: %v", err)
			}
			refAgg := refAggregate(tc.rc, nil, blockSize)
			for i, spec := range aggPlan.Aggregates {
				wantRes := renderAgg(spec, tc.rc.typ, refAgg, refAgg.Count)
				if ares.Aggregates[i] != wantRes {
					t.Fatalf("agg %s: got %+v want %+v", spec.Op, ares.Aggregates[i], wantRes)
				}
			}
			if tc.aggFast && tc.rc.typ != btrblocks.TypeString && ares.Stats.Paths.AggFast == 0 {
				t.Fatalf("aggregate fast path never fired (stats %+v)", ares.Stats.Paths)
			}
			if !tc.aggFast && ares.Stats.Paths.AggDecoded == 0 {
				t.Fatalf("expected decode-fold fallback to fire (stats %+v)", ares.Stats.Paths)
			}
		})
	}
}

// TestOraclePruning pins the headline pruning claim: a range predicate
// over sorted timestamp data skips more than half the blocks via
// metadata bounds alone, with the result still exact.
func TestOraclePruning(t *testing.T) {
	const rows = 20_000
	const blockSize = 1000
	vals := make([]int64, rows)
	base := int64(1_600_000_000_000)
	for i := range vals {
		vals[i] = base + int64(i)*250 // sorted: 4 blocks per million ticks
	}
	col := btrblocks.Int64Column("ts", vals)
	copt := &btrblocks.Options{BlockSize: blockSize}
	src := MemSource{"ts": buildQueryCol(t, col, copt)}
	rc := &refCol{typ: btrblocks.TypeInt64, i64: vals, null: map[int]bool{}, rows: rows}
	e := &Executor{Source: src, Options: copt}

	lo, hi := vals[6200], vals[7800] // a window inside blocks 6..7
	leaf := &Node{Op: "range", Column: "ts", Lo: jNum(lo), Hi: jNum(hi)}
	plan := &Plan{Filter: leaf, Return: ReturnBitmap}
	res, err := e.Run(t.Context(), plan)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := refEval(t, leaf, map[string]*refCol{"ts": rc}, rows)
	got, _, err := roaring.FromBytes(res.Bitmap)
	if err != nil {
		t.Fatalf("bitmap: %v", err)
	}
	if !got.Equals(want) {
		t.Fatalf("selection mismatch: got %d want %d", got.Cardinality(), want.Cardinality())
	}
	if res.Stats.BlocksPruned*2 <= res.Stats.BlocksTotal {
		t.Fatalf("expected >50%% of blocks pruned on sorted data: pruned %d of %d",
			res.Stats.BlocksPruned, res.Stats.BlocksTotal)
	}
	// Sanity: the pruning stat is consistent.
	if res.Stats.BlocksPruned+res.Stats.BlocksScanned != res.Stats.BlocksTotal {
		t.Fatalf("stats don't add up: %+v", res.Stats)
	}
}

// TestSelectionFlowRestriction pins the AND selection-flow optimization:
// when the first conjunct matches a narrow sorted range, the second
// conjunct's scan is restricted to the blocks holding surviving rows.
func TestSelectionFlowRestriction(t *testing.T) {
	const rows = 10_000
	const blockSize = 1000
	sorted := make([]int32, rows)
	noise := make([]int32, rows)
	rng := rand.New(rand.NewSource(99))
	for i := range sorted {
		sorted[i] = int32(i)
		noise[i] = int32(rng.Intn(1000))
	}
	copt := &btrblocks.Options{BlockSize: blockSize}
	src := MemSource{
		"sorted": buildQueryCol(t, btrblocks.IntColumn("sorted", sorted), copt),
		"noise":  buildQueryCol(t, btrblocks.IntColumn("noise", noise), copt),
	}
	// Strip the noise column's metadata: any pruning it gets must come
	// from the flowed-in selection, not its own (useless) bounds.
	src["noise"].Meta = nil
	e := &Executor{Source: src, Options: copt}
	filter := &Node{Op: "and", Children: []*Node{
		{Op: "range", Column: "sorted", Lo: jNum(int32(2100)), Hi: jNum(int32(2900))},
		{Op: "range", Column: "noise", Lo: jNum(int32(0)), Hi: jNum(int32(500))},
	}}
	res, err := e.Run(t.Context(), &Plan{Filter: filter, Return: ReturnBitmap})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	refCols := map[string]*refCol{
		"sorted": {typ: btrblocks.TypeInt, ints: sorted, null: map[int]bool{}, rows: rows},
		"noise":  {typ: btrblocks.TypeInt, ints: noise, null: map[int]bool{}, rows: rows},
	}
	want := refEval(t, filter, refCols, rows)
	got, _, err := roaring.FromBytes(res.Bitmap)
	if err != nil {
		t.Fatalf("bitmap: %v", err)
	}
	if !got.Equals(want) {
		t.Fatalf("selection mismatch: got %d want %d", got.Cardinality(), want.Cardinality())
	}
	// sorted leaf: 10 blocks total, meta prunes to 1 (rows 2100..2900 live
	// in block 2). noise leaf: restriction limits it to that same block.
	// Totals: 20 blocks considered, 2 scanned.
	if res.Stats.BlocksScanned > 2 {
		t.Fatalf("selection flow failed to restrict: scanned %d blocks (stats %+v)",
			res.Stats.BlocksScanned, res.Stats)
	}
}

var _ = strconv.Itoa // keep strconv for quick debugging edits
