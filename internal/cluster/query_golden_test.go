package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"btrblocks"
	"btrblocks/internal/blockstore"
	"btrblocks/internal/query"
)

// goldenCorpus is one column file per type, 140,000 rows in blocks of
// 30,000 with NULLs, so that replies hold bitmap and array containers
// on both sides of several 16-bit keys.
func goldenCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	const n = 140_000
	rng := rand.New(rand.NewSource(33))
	nulls := btrblocks.NewNullMask()
	ints := make([]int32, n)
	ints64 := make([]int64, n)
	doubles := make([]float64, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		if i%11 == 0 || (i >= 64_000 && i < 67_000) {
			nulls.SetNull(i)
		}
		ints[i] = int32(i/50%40) + int32(rng.Intn(3))
		ints64[i] = int64(rng.Intn(1000)) << 33
		doubles[i] = float64(rng.Intn(200)) / 8
		strs[i] = fmt.Sprintf("city-%d", i/700%30)
	}
	contents := make(map[string][]byte)
	for name, col := range map[string]btrblocks.Column{
		"g/i.btr": btrblocks.IntColumn("i", ints),
		"g/l.btr": btrblocks.Int64Column("l", ints64),
		"g/d.btr": btrblocks.DoubleColumn("d", doubles),
		"g/s.btr": btrblocks.StringColumn("s", strs),
	} {
		col.Nulls = nulls
		data, err := btrblocks.CompressColumn(col, &btrblocks.Options{BlockSize: 30_000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		contents[name] = data
	}
	return contents
}

// goldenPlans covers every leaf op on every column type, and/or trees,
// the all-rows reply of a filter-free plan, and base selections with and
// without a filter, each returning its bitmap; some also ask for row ids.
func goldenPlans() []*query.Plan {
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }
	leaf := func(op, col string, args ...string) *query.Node {
		n := &query.Node{Op: op, Column: col}
		switch op {
		case "eq":
			n.Value = raw(args[0])
		case "range":
			n.Lo, n.Hi = raw(args[0]), raw(args[1])
		case "in":
			for _, a := range args {
				n.Values = append(n.Values, raw(a))
			}
		}
		return n
	}
	var every3rd []uint32
	for r := uint32(0); r < 140_000; r += 3 {
		every3rd = append(every3rd, r)
	}
	baseBytes := btrblocks.SelectionOfRows(every3rd...).AppendTo(nil)
	filters := []*query.Node{
		leaf("eq", "g/i.btr", "7"),
		leaf("range", "g/i.btr", "5", "30"),
		leaf("in", "g/i.btr", "1", "2", "40"),
		leaf("notnull", "g/i.btr"),
		leaf("eq", "g/l.btr", fmt.Sprint(int64(17)<<33)),
		leaf("range", "g/l.btr", "0", fmt.Sprint(int64(300)<<33)),
		leaf("in", "g/l.btr", fmt.Sprint(int64(3)<<33), fmt.Sprint(int64(999)<<33)),
		leaf("notnull", "g/l.btr"),
		leaf("eq", "g/d.btr", "12.5"),
		leaf("range", "g/d.btr", "1", "9.5"),
		leaf("in", "g/d.btr", "0", "24.875"),
		leaf("notnull", "g/d.btr"),
		leaf("eq", "g/s.btr", `"city-7"`),
		leaf("range", "g/s.btr", `"city-1"`, `"city-2"`),
		leaf("in", "g/s.btr", `"city-0"`, `"city-29"`, `"nope"`),
		leaf("notnull", "g/s.btr"),
		{Op: "and", Children: []*query.Node{leaf("range", "g/i.btr", "5", "30"), leaf("range", "g/s.btr", `"city-1"`, `"city-2"`)}},
		{Op: "or", Children: []*query.Node{leaf("eq", "g/i.btr", "7"), leaf("in", "g/s.btr", `"city-0"`, `"city-29"`)}},
	}
	var plans []*query.Plan
	for _, f := range filters {
		plans = append(plans, &query.Plan{Filter: f, Return: query.ReturnBitmap})
	}
	return append(plans,
		&query.Plan{Filter: filters[1], Rows: true, RowLimit: 100, Return: query.ReturnBitmap},
		&query.Plan{Filter: filters[17], Rows: true, Return: query.ReturnBitmap},
		&query.Plan{Filter: filters[16], Selection: baseBytes, Rows: true, Return: query.ReturnBitmap},
		&query.Plan{Aggregates: []query.AggSpec{{Op: "count", Column: "g/l.btr"}}, Rows: true, RowLimit: 70_000, Return: query.ReturnBitmap},
		&query.Plan{Aggregates: []query.AggSpec{{Op: "sum", Column: "g/d.btr"}}, Selection: baseBytes, Rows: true, Return: query.ReturnBitmap},
	)
}

// replyLine renders the selection-shaped fields of one reply: the
// bitmap bytes, the match count and the row ids.
func replyLine(name string, res *query.Result) string {
	ids := make([]byte, 0, 4*len(res.RowIDs))
	for _, r := range res.RowIDs {
		ids = binary.LittleEndian.AppendUint32(ids, r)
	}
	return fmt.Sprintf("%s rows=%d matched=%d bytes=%d sha256=%x row_ids=%d truncated=%v ids_sha256=%x\n",
		name, res.Rows, res.Matched, len(res.Bitmap), sha256.Sum256(res.Bitmap),
		len(res.RowIDs), res.RowsTruncated, sha256.Sum256(ids))
}

// TestQueryBitmapGolden pins the /v1/query replies of the golden plans,
// served by one node hosting every file and routed over three nodes at
// R=2: both must match testdata/query_bitmap.golden byte for byte.
// UPDATE_GOLDEN=1 rewrites the file.
func TestQueryBitmapGolden(t *testing.T) {
	contents := goldenCorpus(t)
	single, _ := startNodes(t, []string{"solo"}, []map[string][]byte{contents}, blockstore.Config{})
	names := []string{"n1", "n2", "n3"}
	_, perNode := placeCorpus(t, contents, names, 2)
	_, specs := startNodes(t, names, perNode, blockstore.Config{})
	r := newTestRouter(t, specs, Config{Replicas: 2})

	var out strings.Builder
	for i, p := range goldenPlans() {
		node, err := single[0].cl.Query(t.Context(), p)
		if err != nil {
			t.Fatalf("plan %d on one node: %v", i, err)
		}
		routed, err := r.Query(t.Context(), p)
		if err != nil {
			t.Fatalf("plan %d routed: %v", i, err)
		}
		out.WriteString(replyLine(fmt.Sprintf("plan%02d/node", i), node))
		out.WriteString(replyLine(fmt.Sprintf("plan%02d/router", i), routed))
	}
	got := out.String()
	path := "testdata/query_bitmap.golden"
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
		t.Fatalf("replies differ from %s (UPDATE_GOLDEN=1 rewrites it):\n%s", path, got)
	}
}
