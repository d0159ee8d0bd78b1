package blockstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"btrblocks"
	"btrblocks/internal/query"
	"btrblocks/metadata"
)

func jsonRaw(s string) json.RawMessage { return json.RawMessage(s) }

// queryCorpus builds a store content map with a sorted timestamp column
// (plus its BTRM sidecar, enabling pruning) and a small value column
// sharing the row space.
func queryCorpus(t *testing.T) (map[string][]byte, []int64) {
	t.Helper()
	const n = 6000
	opt := &btrblocks.Options{BlockSize: 500}
	ts := make([]int64, n)
	vals := make([]int32, n)
	for i := range ts {
		ts[i] = 1_600_000_000_000 + int64(i)*250
		vals[i] = int32(i % 97)
	}
	nulls := btrblocks.NewNullMask()
	for i := 0; i < n; i += 13 {
		nulls.SetNull(i)
	}
	tsCol := btrblocks.Int64Column("ts", ts)
	vCol := btrblocks.IntColumn("v", vals)
	vCol.Nulls = nulls

	contents := make(map[string][]byte)
	for name, col := range map[string]btrblocks.Column{"m/ts.btr": tsCol, "m/v.btr": vCol} {
		data, err := btrblocks.CompressColumn(col, opt)
		if err != nil {
			t.Fatal(err)
		}
		contents[name] = data
	}
	m := metadata.Build(tsCol, opt)
	contents["m/ts.btr"+MetaSuffix] = m.AppendTo(nil)
	return contents, ts
}

func queryStore(t *testing.T, contents map[string][]byte) (*Store, *Client) {
	t.Helper()
	store, err := NewStore(contents, Config{Options: &btrblocks.Options{BlockSize: 500}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv := httptest.NewServer(NewServer(store))
	t.Cleanup(srv.Close)
	return store, NewClient(srv.URL)
}

// TestQueryEndpointPruning drives POST /v1/query end to end: a narrow
// range over the sorted timestamp column must answer correctly, fold
// its aggregates, skip most blocks via the hosted sidecar, and fold its
// work into the btrserved_query_* metrics.
func TestQueryEndpointPruning(t *testing.T) {
	contents, ts := queryCorpus(t)
	store, cl := queryStore(t, contents)

	lo, hi := ts[2100], ts[2599]
	plan := &query.Plan{
		Filter: &query.Node{Op: "range", Column: "m/ts.btr",
			Lo: jsonRaw(fmt.Sprint(lo)), Hi: jsonRaw(fmt.Sprint(hi))},
		Aggregates: []query.AggSpec{
			{Op: "count", Column: "m/ts.btr"},
			{Op: "min", Column: "m/ts.btr"},
			{Op: "max", Column: "m/ts.btr"},
		},
		Rows: true,
	}
	res, err := cl.Query(t.Context(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 500 || len(res.RowIDs) != 500 || res.RowIDs[0] != 2100 {
		t.Fatalf("matched=%d rows=%d first=%v", res.Matched, len(res.RowIDs), res.RowIDs[:1])
	}
	for i, want := range []string{"500", fmt.Sprint(lo), fmt.Sprint(hi)} {
		if a := res.Aggregates[i]; a.Value != want || a.Count != 500 {
			t.Errorf("aggregate %s: %+v, want value %s over 500 rows", plan.Aggregates[i].Op, a, want)
		}
	}
	if res.Stats.BlocksPruned == 0 || res.Stats.BlocksPruned*2 < res.Stats.BlocksTotal {
		t.Fatalf("expected >50%% of blocks pruned, got %+v", res.Stats)
	}
	if res.Stats.BlocksPruned+res.Stats.BlocksScanned != res.Stats.BlocksTotal {
		t.Fatalf("pruned+scanned != total: %+v", res.Stats)
	}
	m := store.Metrics()
	if m.QueryRequests.Load() != 1 || m.QueryBlocksPruned.Load() != res.Stats.BlocksPruned {
		t.Fatalf("metrics not folded: requests=%d pruned=%d",
			m.QueryRequests.Load(), m.QueryBlocksPruned.Load())
	}
}

// TestQueryEndpointStatuses pins the error contract of /v1/query: plan
// problems are 400, an unknown column file is 404, and no body — no
// matter how malformed — produces a 5xx.
func TestQueryEndpointStatuses(t *testing.T) {
	contents, _ := queryCorpus(t)
	_, cl := queryStore(t, contents)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed-json", `{"filter":`, http.StatusBadRequest},
		{"trailing-data", `{"filter":{"op":"notnull","column":"m/v.btr"}}{}`, http.StatusBadRequest},
		{"unknown-field", `{"fitler":{}}`, http.StatusBadRequest},
		{"unknown-op", `{"filter":{"op":"like","column":"m/v.btr","value":"x"}}`, http.StatusBadRequest},
		{"no-columns", `{"rows":true}`, http.StatusBadRequest},
		{"bad-literal", `{"filter":{"op":"eq","column":"m/v.btr","value":3.5}}`, http.StatusBadRequest},
		{"empty-in", `{"filter":{"op":"in","column":"m/v.btr","values":[]}}`, http.StatusBadRequest},
		{"bad-return", `{"filter":{"op":"notnull","column":"m/v.btr"},"return":"rowset"}`, http.StatusBadRequest},
		{"negative-limit", `{"filter":{"op":"notnull","column":"m/v.btr"},"row_limit":-1}`, http.StatusBadRequest},
		{"bad-selection", `{"filter":{"op":"notnull","column":"m/v.btr"},"selection":"!!!"}`, http.StatusBadRequest},
		// One run container, key 0, whose run {start 0xFFFF, length 1}
		// ends past its container.
		{"selection-run-past-container", `{"filter":{"op":"notnull","column":"m/v.btr"},"selection":"AQAAAAIBAP//AQA="}`, http.StatusBadRequest},
		{"sum-over-string", `{"aggregates":[{"op":"sum","column":"m/v.btr"}],"filter":{"op":"eq","column":"m/v.btr","value":"nope"}}`, http.StatusBadRequest},
		{"unknown-column", `{"filter":{"op":"notnull","column":"m/missing.btr"}}`, http.StatusNotFound},
		{"sidecar-not-column", `{"filter":{"op":"notnull","column":"m/ts.btr.btrm"}}`, http.StatusBadRequest},
		{"ok", `{"filter":{"op":"notnull","column":"m/v.btr"}}`, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(cl.Endpoint()+"/v1/query", "application/json",
				strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			if resp.StatusCode >= 500 {
				t.Fatalf("5xx from query endpoint: %d", resp.StatusCode)
			}
		})
	}
}

// TestQueryEndpointCorrupt flips a byte inside one block: a query whose
// range forces a scan of that block answers 422, while a query the
// sidecar prunes clear of the damage still succeeds — graceful
// degradation instead of a 500.
func TestQueryEndpointCorrupt(t *testing.T) {
	contents, ts := queryCorpus(t)
	ix, err := btrblocks.ParseColumnIndex(contents["m/ts.btr"])
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(contents["m/ts.btr"])
	bad[ix.Blocks[4].DataOffset()+2] ^= 0xFF // rows 2000..2499
	contents["m/ts.btr"] = bad
	_, cl := queryStore(t, contents)

	rangePlan := func(lo, hi int64) *query.Plan {
		return &query.Plan{Filter: &query.Node{Op: "range", Column: "m/ts.btr",
			Lo: jsonRaw(fmt.Sprint(lo)), Hi: jsonRaw(fmt.Sprint(hi))}}
	}
	_, err = cl.Query(t.Context(), rangePlan(ts[2100], ts[2200]))
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusUnprocessableEntity {
		t.Fatalf("want 422 scanning the corrupt block, got %v", err)
	}
	res, err := cl.Query(t.Context(), rangePlan(ts[4000], ts[4100]))
	if err != nil {
		t.Fatalf("pruned query should dodge the damage: %v", err)
	}
	if res.Matched != 101 {
		t.Fatalf("matched=%d, want 101", res.Matched)
	}
}
