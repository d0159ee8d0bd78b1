package query

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"btrblocks"
)

// goldenShapes are the restricted-scheme column shapes of
// TestOracleRestrictedSchemes at a size whose selections cross 16-bit
// container keys and the 4,096-value array limit, with blocks that start
// off a 64-row word boundary. Each shape comes with one leaf per op.
type goldenShape struct {
	name   string
	col    btrblocks.Column
	copt   *btrblocks.Options
	leaves []*Node
}

const (
	goldenRows      = 140_000
	goldenBlockSize = 30_000
)

func goldenShapes() []goldenShape {
	rng := rand.New(rand.NewSource(4243))
	constant := make([]int32, goldenRows)
	runs := make([]int32, goldenRows)
	dict := make([]int32, goldenRows)
	skew := make([]int32, goldenRows)
	wide := make([]int32, goldenRows)
	dbl := make([]float64, goldenRows)
	strs := make([]string, goldenRows)
	for i := 0; i < goldenRows; {
		v, l := int32(rng.Intn(5))*100, 1+rng.Intn(80)
		for j := 0; j < l && i < goldenRows; j, i = j+1, i+1 {
			runs[i] = v
		}
	}
	for i := range constant {
		constant[i] = 42
		dict[i] = int32(rng.Intn(50)) * 7
		skew[i] = 7
		if rng.Intn(100) >= 92 {
			skew[i] = int32(1000 + rng.Intn(100000))
		}
		wide[i] = int32(rng.Intn(1 << 20))
		dbl[i] = float64(rng.Intn(400)) / 4
		strs[i] = fmt.Sprintf("node-%02d", rng.Intn(20))
	}
	widen := func(vals []int32) []int64 {
		out := make([]int64, len(vals))
		for i, v := range vals {
			out[i] = int64(v) << 33
		}
		return out
	}
	intLeaves := func(scale int64, eq, lo, hi int64, in ...int64) []*Node {
		ins := make([]json.RawMessage, len(in))
		for i, v := range in {
			ins[i] = jNum(v * scale)
		}
		return []*Node{
			{Op: "eq", Column: "a", Value: jNum(eq * scale)},
			{Op: "range", Column: "a", Lo: jNum(lo * scale), Hi: jNum(hi * scale)},
			{Op: "in", Column: "a", Values: ins},
			{Op: "notnull", Column: "a"},
		}
	}
	ints := func(s ...btrblocks.Scheme) *btrblocks.Options {
		return &btrblocks.Options{BlockSize: goldenBlockSize, IntSchemes: append(s, btrblocks.SchemeUncompressed)}
	}
	var shapes []goldenShape
	for _, w := range []struct {
		prefix string
		scale  int64
	}{{"", 1}, {"int64-", 1 << 33}} {
		col := func(vals []int32) btrblocks.Column {
			if w.scale == 1 {
				return btrblocks.IntColumn("a", vals)
			}
			return btrblocks.Int64Column("a", widen(vals))
		}
		shapes = append(shapes,
			goldenShape{w.prefix + "onevalue", col(constant), ints(btrblocks.SchemeOneValue), intLeaves(w.scale, 42, 0, 100, 42, 43)},
			goldenShape{w.prefix + "rle", col(runs), ints(btrblocks.SchemeRLE), intLeaves(w.scale, 200, 100, 300, 0, 400)},
			goldenShape{w.prefix + "dict", col(dict), ints(btrblocks.SchemeDict, btrblocks.SchemeFastBP), intLeaves(w.scale, 14, 70, 140, 7, 14, 343)},
			goldenShape{w.prefix + "frequency", col(skew), ints(btrblocks.SchemeFrequency), intLeaves(w.scale, 7, 5, 50_000, 7, 1000, 1001)},
			goldenShape{w.prefix + "fastbp", col(wide), ints(btrblocks.SchemeFastBP), intLeaves(w.scale, int64(wide[5]), 0, 5000, int64(wide[9]), int64(wide[70_000]))},
		)
	}
	shapes = append(shapes,
		goldenShape{"double", btrblocks.DoubleColumn("a", dbl), &btrblocks.Options{BlockSize: goldenBlockSize}, []*Node{
			{Op: "eq", Column: "a", Value: jNum(12.5)},
			{Op: "range", Column: "a", Lo: jNum(10.0), Hi: jNum(20.0)},
			{Op: "in", Column: "a", Values: []json.RawMessage{jNum(0.25), jNum(99.75)}},
			{Op: "notnull", Column: "a"},
		}},
		goldenShape{"string-dict", btrblocks.StringColumn("a", strs),
			&btrblocks.Options{BlockSize: goldenBlockSize, StringSchemes: []btrblocks.Scheme{btrblocks.SchemeDict, btrblocks.SchemeUncompressed}}, []*Node{
				{Op: "eq", Column: "a", Value: jStr("node-07")},
				{Op: "range", Column: "a", Lo: jStr("node-03"), Hi: jStr("node-05")},
				{Op: "in", Column: "a", Values: []json.RawMessage{jStr("node-00"), jStr("node-19"), jStr("nope")}},
				{Op: "notnull", Column: "a"},
			}},
	)
	return shapes
}

// goldenNulls marks every 13th row plus one dense stretch that crosses
// both a block start (60,000) and a container key (65,536).
func goldenNulls() *btrblocks.NullMask {
	m := btrblocks.NewNullMask()
	for i := 0; i < goldenRows; i++ {
		if i%13 == 0 || (i >= 61_000 && i < 70_500) {
			m.SetNull(i)
		}
	}
	return m
}

// goldenLine renders one serialized selection for a golden file: its
// cardinality, byte length and SHA-256.
func goldenLine(name string, card int, b []byte) string {
	return fmt.Sprintf("%s card=%d bytes=%d sha256=%x\n", name, card, len(b), sha256.Sum256(b))
}

// checkGoldenFile compares got with the file at path; UPDATE_GOLDEN=1
// rewrites the file instead.
func checkGoldenFile(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("selections differ from %s (UPDATE_GOLDEN=1 rewrites it):\n%s", path, got)
	}
}

// TestSelectionBytesGolden pins the serialized bytes of every
// SelectBlocksContext selection over the restricted-scheme shapes — each
// leaf op, with and without NULLs, over all blocks and over a subset —
// so that a change to how selections are built cannot change a byte a
// client or a router sees.
func TestSelectionBytesGolden(t *testing.T) {
	var out strings.Builder
	for _, sh := range goldenShapes() {
		for _, withNulls := range []bool{false, true} {
			col, nulls := sh.col, "nonull"
			if withNulls {
				col.Nulls, nulls = goldenNulls(), "nulls"
			}
			c := buildQueryCol(t, col, sh.copt)
			for _, leaf := range sh.leaves {
				bl, err := bindLeaf(leaf, c.Index.Type)
				if err != nil {
					t.Fatalf("%s %s: %v", sh.name, leaf.Op, err)
				}
				for _, blocks := range []struct {
					label string
					ids   []int
				}{{"all", nil}, {"1,2,4", []int{1, 2, 4}}} {
					sel, _, err := c.Index.SelectBlocksContext(t.Context(), c.Data, bl.pred, blocks.ids, sh.copt)
					if err != nil {
						t.Fatalf("%s %s: %v", sh.name, leaf.Op, err)
					}
					name := fmt.Sprintf("%s/%s/%s/blocks=%s", sh.name, nulls, leaf.Op, blocks.label)
					out.WriteString(goldenLine(name, sel.Cardinality(), sel.AppendTo(nil)))
				}
			}
		}
	}
	checkGoldenFile(t, "testdata/selection_bytes.golden", out.String())
}
