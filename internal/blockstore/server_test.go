package blockstore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"btrblocks"
	"btrblocks/internal/obs"
	"btrblocks/internal/pbi"
	"btrblocks/internal/query"
)

// writeTree materializes an in-memory corpus as a directory tree.
func writeTree(t *testing.T, dir string, contents map[string][]byte) {
	t.Helper()
	for name, data := range contents {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// testCorpus builds one multi-block column file per type, with NULLs and
// awkward doubles (NaN, Inf, negative zero) to stress the wire formats.
func testCorpus(t *testing.T) (map[string][]byte, map[string]btrblocks.Column) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	const n = 6000
	nulls := btrblocks.NewNullMask()
	for i := 0; i < n; i += 5 {
		nulls.SetNull(i)
	}
	ints := make([]int32, n)
	ints64 := make([]int64, n)
	doubles := make([]float64, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		ints[i] = int32(rng.Intn(500))
		ints64[i] = int64(rng.Intn(500)) << 30
		doubles[i] = float64(rng.Intn(10000)) / 4
		strs[i] = fmt.Sprintf("city-%d", rng.Intn(40))
	}
	doubles[1] = math.NaN()
	doubles[2] = math.Inf(1)
	doubles[3] = math.Copysign(0, -1)

	cols := map[string]btrblocks.Column{
		"t/i.btr": btrblocks.IntColumn("i", ints),
		"t/l.btr": btrblocks.Int64Column("l", ints64),
		"t/d.btr": btrblocks.DoubleColumn("d", doubles),
		"t/s.btr": btrblocks.StringColumn("s", strs),
	}
	contents := make(map[string][]byte)
	for name, col := range cols {
		col.Nulls = nulls
		cols[name] = col
		data, err := btrblocks.CompressColumn(col, &btrblocks.Options{BlockSize: 2000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		contents[name] = data
	}
	return contents, cols
}

func newTestServer(t *testing.T, cfg Config, opts ...ServerOption) (*Store, *Client, map[string][]byte, map[string]btrblocks.Column) {
	t.Helper()
	contents, cols := testCorpus(t)
	store, cl := serveCorpus(t, contents, cfg, opts...)
	return store, cl, contents, cols
}

// serveCorpus serves contents from an in-memory store over httptest.
func serveCorpus(t *testing.T, contents map[string][]byte, cfg Config, opts ...ServerOption) (*Store, *Client) {
	t.Helper()
	store, err := NewStore(contents, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv := httptest.NewServer(NewServer(store, opts...))
	t.Cleanup(srv.Close)
	return store, NewClient(srv.URL)
}

// corpus is a set of served column files and their ground truth, both
// keyed by store-relative name.
type corpus struct {
	contents map[string][]byte
	cols     map[string]btrblocks.Column
}

// pbiCorpus compresses every column of the generated Public BI corpus
// (546 files of integers, doubles and strings, NULLs included) once per
// test binary. 4,000-row tables in 1,300-row blocks pick every root and
// nested scheme that 20,000-row tables in 4,096-row blocks pick.
var pbiCorpus = sync.OnceValues(func() (corpus, error) {
	c := corpus{contents: make(map[string][]byte), cols: make(map[string]btrblocks.Column)}
	for _, ds := range pbi.Corpus(4000, 42) {
		for _, col := range ds.Chunk.Columns {
			name := ds.Name + "/" + col.Name + ".btr"
			data, err := btrblocks.CompressColumn(col, &btrblocks.Options{BlockSize: 1300})
			if err != nil {
				return corpus{}, fmt.Errorf("%s: %v", name, err)
			}
			c.contents[name], c.cols[name] = data, col
		}
	}
	return c, nil
})

// widePBI returns pbiCorpus, skipping the test under -short.
func widePBI(t *testing.T) corpus {
	t.Helper()
	if testing.Short() {
		t.Skip("PBI corpus skipped in -short mode")
	}
	c, err := pbiCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestServerFilesAndRaw(t *testing.T) {
	_, cl, contents, _ := newTestServer(t, Config{})
	ctx := context.Background()

	metas, err := cl.Files(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != len(contents) {
		t.Fatalf("%d files listed, want %d", len(metas), len(contents))
	}
	for _, m := range metas {
		if m.Kind != "column" || m.Rows != 6000 || m.Blocks != 3 {
			t.Fatalf("meta %+v", m)
		}
		if m.Bytes != len(contents[m.Name]) {
			t.Fatalf("%s: %d bytes listed, file has %d", m.Name, m.Bytes, len(contents[m.Name]))
		}
	}

	// Raw bytes are served verbatim, and ranges work (the S3-style path).
	raw, err := cl.Raw(ctx, "t/i.btr")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, contents["t/i.btr"]) {
		t.Fatal("raw bytes differ from stored file")
	}
	part, err := cl.RawRange(ctx, "t/i.btr", 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, contents["t/i.btr"][8:108]) {
		t.Fatal("range bytes differ")
	}
}

func TestServerBlocksMatchLocalDecode(t *testing.T) {
	contents, _ := testCorpus(t)
	t.Run("synthetic", func(t *testing.T) { checkBlocksMatchLocalDecode(t, contents) })
	t.Run("pbi", func(t *testing.T) { checkBlocksMatchLocalDecode(t, widePBI(t).contents) })
}

// checkBlocksMatchLocalDecode serves contents and checks every block, in
// both wire formats, against a local decode of the same file.
func checkBlocksMatchLocalDecode(t *testing.T, contents map[string][]byte) {
	store, cl := serveCorpus(t, contents, Config{})
	ctx := context.Background()
	opt := store.Options()

	for name, data := range contents {
		full, err := btrblocks.DecompressColumn(data, opt)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := cl.FileMeta(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for b := 0; b < meta.Blocks; b++ {
			bin, err := cl.Block(ctx, name, b)
			if err != nil {
				t.Fatalf("%s block %d: %v", name, b, err)
			}
			jsn, err := cl.BlockJSON(ctx, name, b)
			if err != nil {
				t.Fatalf("%s block %d: %v", name, b, err)
			}
			checkBlockAgainst(t, bin, &full, name)
			checkBlockAgainst(t, jsn, &full, name)
			rows += bin.Rows
		}
		if rows != full.Len() {
			t.Fatalf("%s: blocks cover %d rows, column has %d", name, rows, full.Len())
		}
	}
}

// checkBlockAgainst compares served block values (from either wire
// format) to the locally decompressed column. Doubles compare by bits so
// NaN and negative zero count as equal to themselves.
func checkBlockAgainst(t *testing.T, blk *BlockValues, full *btrblocks.Column, name string) {
	t.Helper()
	isNull := make(map[int]bool, len(blk.Nulls))
	for _, p := range blk.Nulls {
		isNull[p] = true
	}
	for i := 0; i < blk.Rows; i++ {
		r := blk.StartRow + i
		if full.Nulls.IsNull(r) != isNull[i] {
			t.Fatalf("%s row %d: NULL mismatch", name, r)
		}
		if isNull[i] {
			continue
		}
		ok := true
		switch {
		case blk.Ints != nil:
			ok = blk.Ints[i] == full.Ints[r]
		case blk.Ints64 != nil:
			ok = blk.Ints64[i] == full.Ints64[r]
		case blk.Doubles != nil:
			ok = math.Float64bits(blk.Doubles[i]) == math.Float64bits(full.Doubles[r])
		default:
			ok = blk.Strings[i] == full.Strings.At(r)
		}
		if !ok {
			t.Fatalf("%s row %d: value mismatch", name, r)
		}
	}
}

// TestServerCountEqMatchesLocal counts column = literal through POST
// /v1/query, a plan with one eq leaf answered by Result.Matched, and
// checks every count against the ground-truth rows.
func TestServerCountEqMatchesLocal(t *testing.T) {
	t.Run("synthetic", func(t *testing.T) {
		contents, cols := testCorpus(t)
		checkCountEqMatchesLocal(t, corpus{contents, cols}, map[string][]any{
			"t/i.btr": {int32(7), int32(250), int32(-1)},
			"t/l.btr": {int64(3) << 30, int64(0), int64(-1)},
			"t/d.btr": {2.25, 0.25, -7.0},
			"t/s.btr": {"city-3", "city-11", "nowhere"},
		})
	})
	t.Run("pbi", func(t *testing.T) {
		// Per column, a sure miss and the first non-NULL value.
		c := widePBI(t)
		probes := make(map[string][]any, len(c.cols))
		for name, col := range c.cols {
			switch col.Type {
			case btrblocks.TypeInt:
				probes[name] = []any{int32(-987654321)}
			case btrblocks.TypeInt64:
				probes[name] = []any{int64(-987654321)}
			case btrblocks.TypeDouble:
				probes[name] = []any{-987654321.0}
			default:
				probes[name] = []any{"no-such-value"}
			}
			for i := 0; i < col.Len(); i++ {
				if !col.Nulls.IsNull(i) {
					probes[name] = append(probes[name], valueAt(&col, i))
					break
				}
			}
		}
		checkCountEqMatchesLocal(t, c, probes)
	})
}

// valueAt returns row i of col as a typed Go value.
func valueAt(col *btrblocks.Column, i int) any {
	switch col.Type {
	case btrblocks.TypeInt:
		return col.Ints[i]
	case btrblocks.TypeInt64:
		return col.Ints64[i]
	case btrblocks.TypeDouble:
		return col.Doubles[i]
	}
	return col.Strings.At(i)
}

// eqProbe turns a typed value into the literal of an eq leaf and the
// predicate it stands for. NaN and ±Inf travel as JSON strings, the
// form plan literals give them.
func eqProbe(t *testing.T, v any) (json.RawMessage, btrblocks.Predicate) {
	t.Helper()
	switch v := v.(type) {
	case int32:
		return json.RawMessage(strconv.Itoa(int(v))), btrblocks.IntEq(v)
	case int64:
		return json.RawMessage(strconv.FormatInt(v, 10)), btrblocks.Int64Eq(v)
	case float64:
		lit := strconv.FormatFloat(v, 'g', -1, 64)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			lit = strconv.Quote(lit)
		}
		return json.RawMessage(lit), btrblocks.DoubleEq(v)
	case string:
		lit, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return lit, btrblocks.StringEq(v)
	}
	t.Fatalf("no eq probe for %T", v)
	return nil, btrblocks.Predicate{}
}

// checkCountEqMatchesLocal serves c and checks the pushed-down count of
// every probe against the ground-truth rows.
func checkCountEqMatchesLocal(t *testing.T, c corpus, probes map[string][]any) {
	_, cl := serveCorpus(t, c.contents, Config{})
	ctx := context.Background()

	for name, values := range probes {
		col := c.cols[name]
		for _, v := range values {
			lit, p := eqProbe(t, v)
			res, err := cl.Query(ctx, &query.Plan{Filter: &query.Node{Op: "eq", Column: name, Value: lit}})
			if err != nil {
				t.Fatalf("%s = %s: %v", name, lit, err)
			}
			// The reference decodes nothing: it compares the ground-truth
			// rows one by one.
			want := 0
			for i := 0; i < col.Len(); i++ {
				if p.Matches(&col, i) {
					want++
				}
			}
			if res.Matched != int64(want) || res.Rows != col.Len() {
				t.Fatalf("%s = %s: served %d of %d rows, local %d of %d", name, lit, res.Matched, res.Rows, want, col.Len())
			}
		}
	}
}

func TestServerErrorPaths(t *testing.T) {
	_, cl, _, _ := newTestServer(t, Config{})

	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/raw/no-such-file", "", http.StatusNotFound},
		{"GET", "/v1/files?file=no-such-file", "", http.StatusNotFound},
		{"GET", "/v1/block?file=no-such-file&block=0", "", http.StatusNotFound},
		{"GET", "/v1/block?file=t/i.btr&block=99", "", http.StatusBadRequest},
		{"GET", "/v1/block?file=t/i.btr&block=x", "", http.StatusBadRequest},
		{"GET", "/v1/block?file=t/i.btr", "", http.StatusBadRequest},
		{"GET", "/v1/block?file=t/i.btr&block=0&format=yaml", "", http.StatusBadRequest},
		{"GET", "/healthz", "", http.StatusOK},
		// Non-GET methods are rejected.
		{"POST", "/v1/files", "x", http.StatusMethodNotAllowed},
		// A count is a /v1/query plan and server state is /metrics and
		// /v1/spans: the count-eq and telemetry routes are gone.
		{"GET", "/v1/count-eq?file=t/i.btr&value=1", "", http.StatusNotFound},
		{"GET", "/v1/telemetry", "", http.StatusNotFound},
		// An eq leaf without a literal (an unknown column and a mistyped
		// literal are TestQueryEndpointStatuses rows).
		{"POST", "/v1/query", `{"filter":{"op":"eq","column":"t/i.btr"}}`, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(tc.method, cl.base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestServerTelemetryAndMetrics(t *testing.T) {
	store, cl, _, _ := newTestServer(t, Config{
		Options: &btrblocks.Options{Telemetry: btrblocks.NewTelemetry()},
	}, WithSpans(obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btrserved"})))
	ctx := context.Background()

	// Generate traffic: two hits on the same block.
	if _, err := cl.Block(ctx, "t/i.btr", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Block(ctx, "t/i.btr", 0); err != nil {
		t.Fatal(err)
	}
	// The library telemetry saw the one decode; btrserved reads it in
	// process (expvar section, shutdown summary), not over HTTP.
	if got := store.Options().Telemetry.Snapshot().DecodeBlocks; got != 1 {
		t.Fatalf("library telemetry decoded %d blocks, want 1", got)
	}

	// Each fetch ran under a btrserved/v1/block root span, and the miss
	// recorded its decode as a child in the same trace.
	ss, err := cl.Spans(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
	roots := make(map[string]string) // span ID -> trace ID
	for _, s := range ss.Spans {
		if s.Name == "btrserved/v1/block" && s.ParentID == "" {
			roots[s.SpanID] = s.TraceID
		}
	}
	decodes := 0
	for _, s := range ss.Spans {
		if trace, ok := roots[s.ParentID]; ok && s.Name == "block.decode" && s.TraceID == trace {
			decodes++
		}
	}
	if len(roots) != 2 || decodes != 1 {
		t.Errorf("recorded %d btrserved/v1/block roots and %d linked block.decode children, want 2 and 1", len(roots), decodes)
	}
	// The slowest root's trace is the one /v1/spans?min_dur= keeps at
	// its own duration.
	var slowest obs.SpanRecord
	for _, s := range ss.Spans {
		if _, ok := roots[s.SpanID]; ok && s.DurationNanos > slowest.DurationNanos {
			slowest = s
		}
	}
	tail, err := cl.Spans(ctx, "", time.Duration(slowest.DurationNanos))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(tail.Spans, func(s obs.SpanRecord) bool { return s.SpanID == slowest.SpanID }) {
		t.Errorf("/v1/spans?min_dur=%v lacks the slowest root %s", time.Duration(slowest.DurationNanos), slowest.SpanID)
	}

	text, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"btrserved_cache_hits_total 1",
		"btrserved_cache_misses_total 1",
		"btrserved_decoded_blocks_total 1",
		`btrserved_http_requests_total{route="/v1/block"} 2`,
		`btrserved_http_request_duration_seconds_count{route="/v1/block"} 2`,
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestServerScanColumn(t *testing.T) {
	_, cl, _, cols := newTestServer(t, Config{PrefetchBlocks: 2})
	ctx := context.Background()

	for name, col := range cols {
		rows, bytes, err := cl.ScanColumn(ctx, name, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rows != col.Len() {
			t.Fatalf("%s: scanned %d rows, want %d", name, rows, col.Len())
		}
		if bytes <= 0 {
			t.Fatalf("%s: scanned %d bytes", name, bytes)
		}
	}
	// Scanning a non-column is a clean error, not a hang.
	if _, _, err := cl.ScanColumn(ctx, "no-such", 2); err == nil {
		t.Fatal("scan of missing file succeeded")
	}
}

func TestOpenServesFromDisk(t *testing.T) {
	contents, _ := testCorpus(t)
	dir := t.TempDir()
	writeTree(t, dir, contents)

	store, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if len(store.Files()) != len(contents) {
		t.Fatalf("loaded %d files, want %d", len(store.Files()), len(contents))
	}
	for name, data := range contents {
		f := store.File(name)
		if f == nil || !bytes.Equal(f.Data, data) {
			t.Fatalf("%s not loaded intact", name)
		}
		if f.Kind != "column" {
			t.Fatalf("%s classified as %s", name, f.Kind)
		}
	}
	// An unparseable file is hosted as raw, not rejected.
	if _, err := NewStore(map[string][]byte{"junk": []byte("not a container")}, Config{}); err != nil {
		t.Fatalf("raw file rejected: %v", err)
	}
}
