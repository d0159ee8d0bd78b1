package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"btrblocks"
	"btrblocks/internal/blockstore"
	"btrblocks/internal/query"
)

// probeColumns are the files of the probe table, in its column order:
// each type without and with NULLs.
var probeColumns = []string{"p/i.btr", "p/in.btr", "p/l.btr", "p/ln.btr", "p/d.btr", "p/dn.btr", "p/s.btr", "p/sn.btr"}

// probeCorpus builds the probe table's files: 600 rows in three blocks
// of 200 — runs, a repeating cycle, then one value — over values chosen
// so that every probe of the table means something for some type. In
// the NULL-bearing files every third row is NULL and its slot holds the
// value "5" stands for, so a count that forgets the NULLs overcounts.
func probeCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	const n = 600
	ints := []int32{5, 0, 7, 1000, 16, -1, math.MaxInt32, 5, 0, 5}
	ints64 := []int64{5, 0, 7, 1000, 16, -1, 1 << 31, 5, 0, 5}
	doubles := []float64{5, 0, math.Copysign(0, -1), 1000, 16, math.NaN(), 1 << 31, 5, 0.5, 5}
	strs := []string{"5", "abc", " 5", "", "NaN", "+5", "1e3", "0x10", "-0", "5"}
	pick := func(i int) int {
		switch {
		case i < 200:
			return (i / 20) % 10 // runs of 20
		case i < 400:
			return i % 10
		default:
			return 0
		}
	}
	nulls := btrblocks.NewNullMask()
	for i := 0; i < n; i += 3 {
		nulls.SetNull(i)
	}
	cols := make([]btrblocks.Column, len(probeColumns))
	for c := range cols {
		var col btrblocks.Column
		switch c / 2 {
		case 0:
			v := make([]int32, n)
			for i := range v {
				v[i] = ints[pick(i)]
			}
			col = btrblocks.IntColumn("i", v)
		case 1:
			v := make([]int64, n)
			for i := range v {
				v[i] = ints64[pick(i)]
			}
			col = btrblocks.Int64Column("l", v)
		case 2:
			v := make([]float64, n)
			for i := range v {
				v[i] = doubles[pick(i)]
			}
			col = btrblocks.DoubleColumn("d", v)
		default:
			v := make([]string, n)
			for i := range v {
				v[i] = strs[pick(i)]
			}
			col = btrblocks.StringColumn("s", v)
		}
		if c%2 == 1 {
			col.Nulls = nulls
			for i := 0; i < n; i += 3 {
				switch col.Type {
				case btrblocks.TypeInt:
					col.Ints[i] = 5
				case btrblocks.TypeInt64:
					col.Ints64[i] = 5
				case btrblocks.TypeDouble:
					col.Doubles[i] = 5
				}
			}
		}
		cols[c] = col
	}
	contents := make(map[string][]byte, len(cols))
	for c, col := range cols {
		data, err := btrblocks.CompressColumn(col, &btrblocks.Options{BlockSize: 200})
		if err != nil {
			t.Fatal(err)
		}
		contents[probeColumns[c]] = data
	}
	return contents
}

// TestCountEqProbeTable pins what a count of column = literal answers
// for each probe literal on each column type, with and without NULLs:
// POST /v1/query with one eq leaf, read from Result.Matched, on a
// btrserved node and through the router. want[c] is the count file c
// answers, or -1 where the literal does not bind to the file's type and
// the reply is 400 Bad Request.
func TestCountEqProbeTable(t *testing.T) {
	const bad = -1
	// lit is the eq leaf's literal as the JSON it travels as: each probe
	// as a JSON number where it is one and as a JSON string otherwise,
	// then the numeric probes again as JSON strings. A number does not
	// bind to a string column, and "+5" is no JSON number, so it does not
	// bind to an integer column; a string holding a number binds to every
	// numeric column as that number.
	table := []struct {
		lit  string // "" leaves the value out
		want [8]int
	}{
		// columns: int, int+NULL, bigint, bigint+NULL, double, double+NULL, string, string+NULL
		{lit: `5`, want: [8]int{320, 212, 320, 212, 320, 212, bad, bad}},
		{lit: `42`, want: [8]int{0, 0, 0, 0, 0, 0, bad, bad}},
		{lit: `2147483648`, want: [8]int{bad, bad, 40, 26, 40, 26, bad, bad}},
		{lit: `"abc"`, want: [8]int{bad, bad, bad, bad, bad, bad, 40, 26}},
		{lit: `"NaN"`, want: [8]int{bad, bad, bad, bad, 40, 28, 40, 26}},
		{lit: `-0`, want: [8]int{80, 54, 80, 54, 40, 28, bad, bad}},
		{lit: `1e3`, want: [8]int{bad, bad, bad, bad, 40, 26, bad, bad}},
		{lit: `"+5"`, want: [8]int{bad, bad, bad, bad, 320, 212, 40, 28}},
		{lit: `"0x10"`, want: [8]int{bad, bad, bad, bad, bad, bad, 40, 26}},
		{lit: `" 5"`, want: [8]int{bad, bad, bad, bad, bad, bad, 40, 28}},
		{lit: `""`, want: [8]int{bad, bad, bad, bad, bad, bad, 40, 26}},
		{lit: ``, want: [8]int{bad, bad, bad, bad, bad, bad, bad, bad}},
		{lit: `"5"`, want: [8]int{320, 212, 320, 212, 320, 212, 280, 186}},
		{lit: `"42"`, want: [8]int{0, 0, 0, 0, 0, 0, 0, 0}},
		{lit: `"2147483648"`, want: [8]int{bad, bad, 40, 26, 40, 26, 0, 0}},
		{lit: `"-0"`, want: [8]int{80, 54, 80, 54, 40, 28, 40, 28}},
		{lit: `"1e3"`, want: [8]int{bad, bad, bad, bad, 40, 26, 40, 26}},
	}

	contents := probeCorpus(t)
	node, err := blockstore.NewStore(contents, blockstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	nodeSrv := httptest.NewServer(blockstore.NewServer(node))
	t.Cleanup(nodeSrv.Close)
	names := []string{"n1", "n2", "n3"}
	_, perNode := placeCorpus(t, contents, names, 2)
	_, specs := startNodes(t, names, perNode, blockstore.Config{})
	routerSrv := httptest.NewServer(NewServer(newTestRouter(t, specs, Config{Replicas: 2, DisableHedge: true}), nil))
	t.Cleanup(routerSrv.Close)

	count := func(base string, leaf *query.Node) (int, *query.Result) {
		t.Helper()
		plan, err := json.Marshal(query.Plan{Filter: leaf})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(plan))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var res query.Result
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatalf("%s: %v", plan, err)
			}
		}
		return resp.StatusCode, &res
	}
	for _, row := range table {
		for c, name := range probeColumns {
			want := row.want[c]
			leaf := &query.Node{Op: "eq", Column: name}
			if row.lit != "" {
				leaf.Value = json.RawMessage(row.lit)
			}
			for server, base := range map[string]string{"btrserved": nodeSrv.URL, "btrrouted": routerSrv.URL} {
				code, res := count(base, leaf)
				what := fmt.Sprintf("%s %s = %s", server, name, row.lit)
				switch {
				case want == bad && code != http.StatusBadRequest:
					t.Errorf("%s: status %d, want 400", what, code)
				case want == bad:
				case code != http.StatusOK:
					t.Errorf("%s: status %d, want 200", what, code)
				case res.Matched != int64(want) || res.Rows != 600:
					t.Errorf("%s: matched %d of %d rows, want %d of 600", what, res.Matched, res.Rows, want)
				}
			}
		}
	}
}
