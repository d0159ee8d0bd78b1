package blockstore

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"btrblocks"
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

func newTestServer(t *testing.T, cfg Config) (*Store, *Client, map[string][]byte, map[string]btrblocks.Column) {
	t.Helper()
	contents, cols := testCorpus(t)
	store, err := NewStore(contents, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv := httptest.NewServer(NewServer(store))
	t.Cleanup(srv.Close)
	return store, NewClient(srv.URL), contents, cols
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
	store, cl, contents, _ := newTestServer(t, Config{})
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

func TestServerCountEqMatchesLocal(t *testing.T) {
	_, cl, _, cols := newTestServer(t, Config{})
	ctx := context.Background()

	probes := map[string][]string{
		"t/i.btr": {"7", "250", "-1"},
		"t/l.btr": {fmt.Sprint(int64(3) << 30), "0", "-1"},
		"t/d.btr": {"2.25", "0.25", "-7"},
		"t/s.btr": {"city-3", "city-11", "nowhere"},
	}
	for name, values := range probes {
		col := cols[name]
		for _, v := range values {
			res, err := cl.CountEq(ctx, name, v)
			if err != nil {
				t.Fatalf("%s %q: %v", name, v, err)
			}
			// The reference decodes nothing: it compares the ground-truth
			// rows one by one.
			p, err := btrblocks.ParseEq(col.Type, v)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for i := 0; i < col.Len(); i++ {
				if p.Matches(&col, i) {
					want++
				}
			}
			if res.Count != want {
				t.Fatalf("%s %q: served %d, local %d", name, v, res.Count, want)
			}
			if res.Type != col.Type.String() {
				t.Fatalf("%s: served type %q", name, res.Type)
			}
		}
	}
}

func TestServerErrorPaths(t *testing.T) {
	_, cl, _, _ := newTestServer(t, Config{})

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(cl.base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for path, want := range map[string]int{
		"/v1/raw/no-such-file":                       http.StatusNotFound,
		"/v1/files?file=no-such-file":                http.StatusNotFound,
		"/v1/block?file=no-such-file&block=0":        http.StatusNotFound,
		"/v1/block?file=t/i.btr&block=99":            http.StatusBadRequest,
		"/v1/block?file=t/i.btr&block=x":             http.StatusBadRequest,
		"/v1/block?file=t/i.btr":                     http.StatusBadRequest,
		"/v1/block?file=t/i.btr&block=0&format=yaml": http.StatusBadRequest,
		"/v1/count-eq?file=no-such&value=1":          http.StatusNotFound,
		"/v1/count-eq?file=t/i.btr":                  http.StatusBadRequest,
		"/v1/count-eq?file=t/i.btr&value=zebra":      http.StatusBadRequest,
		"/healthz":                                   http.StatusOK,
	} {
		if got := status(path); got != want {
			t.Errorf("GET %s = %d, want %d", path, got, want)
		}
	}
	// Non-GET methods are rejected.
	resp, err := http.Post(cl.base+"/v1/files", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST = %d, want 405", resp.StatusCode)
	}
}

func TestServerTelemetryAndMetrics(t *testing.T) {
	_, cl, _, _ := newTestServer(t, Config{
		Options: &btrblocks.Options{Telemetry: btrblocks.NewTelemetry()},
	})
	ctx := context.Background()

	// Generate traffic: two hits on the same block.
	if _, err := cl.Block(ctx, "t/i.btr", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Block(ctx, "t/i.btr", 0); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Telemetry(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache.Misses != 1 || rep.Cache.Hits != 1 || rep.Cache.DecodedBlocks != 1 {
		t.Fatalf("cache stats %+v", rep.Cache)
	}
	if rep.Telemetry == nil || rep.Telemetry.DecodeBlocks != 1 {
		t.Fatalf("library telemetry missing or wrong: %+v", rep.Telemetry)
	}
	if len(rep.Telemetry.Events) != 0 {
		t.Fatal("per-block events must be stripped from the wire report")
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
