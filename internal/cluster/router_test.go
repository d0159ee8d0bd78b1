package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"btrblocks"
	"btrblocks/internal/blockstore"
)

// Through the router, every file reads complete and bit-correct even
// though each node only holds its R-way share of the corpus.
func TestRouterFetchesWholeCorpus(t *testing.T) {
	contents, cols := testCorpus(t)
	names := []string{"n1", "n2", "n3"}
	_, perNode := placeCorpus(t, contents, names, 2)
	_, specs := startNodes(t, names, perNode, blockstore.Config{})
	r := newTestRouter(t, specs, Config{Replicas: 2, DisableHedge: true})

	files, err := r.Files(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(contents) {
		t.Fatalf("Files lists %d entries, corpus has %d", len(files), len(contents))
	}
	for name, col := range cols {
		blocks := blockCount(t, contents[name])
		verifyColumn(t, col, blocks, func(b int) (*blockstore.BlockValues, error) {
			return r.FetchBlock(testCtx, name, b)
		})
	}
	if got := r.Metrics().BlockFetches.Load(); got == 0 {
		t.Error("block fetch counter did not move")
	}
}

// Killing one replica's server mid-cluster must not fail any read: the
// router fails over to the surviving replica.
func TestRouterFailoverOnDeadReplica(t *testing.T) {
	contents, cols := testCorpus(t)
	names := []string{"n1", "n2", "n3"}
	ring, perNode := placeCorpus(t, contents, names, 2)
	nodes, specs := startNodes(t, names, perNode, blockstore.Config{})
	r := newTestRouter(t, specs, Config{Replicas: 2, DisableHedge: true, AttemptTimeout: 2 * time.Second})

	const victim = "t/i.btr"
	dead := ring.Place(victim, 2)[0]
	nodes[dead].srv.Close()

	blocks := blockCount(t, contents[victim])
	verifyColumn(t, cols[victim], blocks, func(b int) (*blockstore.BlockValues, error) {
		return r.FetchBlock(testCtx, victim, b)
	})
	if got := r.Metrics().Failovers.Load(); got == 0 {
		t.Error("no failover counted though the primary of some blocks was dead")
	}
	// The pushed-down count fails over the same way.
	res, err := r.CountEq(testCtx, victim, "1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := btrblocks.Count(contents[victim], btrblocks.IntEq(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("count through router %d, local %d", res.Count, want)
	}
}

// A replica answering 422 (corrupt) fails over AND triggers a
// cross-replica repair that heals the damaged copy in place.
func TestRouterDamageFailoverAndRepair(t *testing.T) {
	contents, cols := testCorpus(t)
	names := []string{"n1", "n2", "n3"}
	ring, perNode := placeCorpus(t, contents, names, 2)

	const victim = "t/s.btr"
	badBlock := 1
	placed := ring.Place(victim, 2)
	// Rotation makes placed[badBlock % 2] the primary for badBlock, so
	// damaging that copy guarantees the routed read observes the 422.
	damagedNode := placed[badBlock%len(placed)]
	perNode[damagedNode][victim] = flipBlockByte(t, contents[victim], badBlock)

	nodes, specs := startNodes(t, names, perNode, blockstore.Config{QuarantineThreshold: 1})
	r := newTestRouter(t, specs, Config{Replicas: 2, DisableHedge: true})

	// Sanity: the damaged node really refuses the block.
	if _, err := nodes[damagedNode].cl.Block(testCtx, victim, badBlock); !blockstore.IsBlockDamage(err) {
		t.Fatalf("damaged replica served block: %v", err)
	}

	// The routed read is still bit-correct.
	blocks := blockCount(t, contents[victim])
	verifyColumn(t, cols[victim], blocks, func(b int) (*blockstore.BlockValues, error) {
		return r.FetchBlock(testCtx, victim, b)
	})
	m := r.Metrics()
	if m.DamageDetected.Load() == 0 {
		t.Fatal("router read past damage without detecting it")
	}

	// The repair loop pushes the good copy back onto the damaged node.
	waitFor(t, 10*time.Second, "replica heal", func() bool {
		_, err := nodes[damagedNode].cl.Block(testCtx, victim, badBlock)
		return err == nil
	})
	verifyColumn(t, cols[victim], blocks, func(b int) (*blockstore.BlockValues, error) {
		return nodes[damagedNode].cl.Block(testCtx, victim, b)
	})
	if m.RepairsSucceeded.Load() == 0 {
		t.Error("repairs_succeeded is zero after the heal")
	}
}

// The router's HTTP surface keeps single-node error semantics: a file
// absent everywhere stays 404, a bad probe stays 400, and damage on
// every replica stays 422.
func TestRouterServerStatusPropagation(t *testing.T) {
	contents, _ := testCorpus(t)
	names := []string{"n1", "n2", "n3"}
	ring, perNode := placeCorpus(t, contents, names, 2)

	const victim = "t/l.btr"
	// Damage every replica of one block so the routed fetch cannot
	// succeed anywhere.
	for _, ni := range ring.Place(victim, 2) {
		perNode[ni][victim] = flipBlockByte(t, contents[victim], 0)
	}
	_, specs := startNodes(t, names, perNode, blockstore.Config{QuarantineThreshold: 1})
	r := newTestRouter(t, specs, Config{Replicas: 2, DisableHedge: true})
	srv := httptest.NewServer(NewServer(r, nil))
	t.Cleanup(srv.Close)

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, _ := get("/v1/files?file=no/such.btr"); code != http.StatusNotFound {
		t.Errorf("missing file: got %d, want 404", code)
	}
	if code, _ := get("/v1/block?file=no/such.btr&block=0"); code != http.StatusNotFound {
		t.Errorf("block of missing file: got %d, want 404", code)
	}
	if code, _ := get("/v1/count-eq?file=t/i.btr&value=not-an-int"); code != http.StatusBadRequest {
		t.Errorf("bad probe: got %d, want 400", code)
	}
	// Out-of-range blocks are 400 on a single node; the router keeps that.
	if code, _ := get("/v1/block?file=t/i.btr&block=999"); code != http.StatusBadRequest {
		t.Errorf("out-of-range block: got %d, want 400", code)
	}
	code, body := get("/v1/block?file=" + victim + "&block=0")
	if code != http.StatusUnprocessableEntity && code != http.StatusGone {
		t.Errorf("block damaged on every replica: got %d (%s), want 422/410", code, strings.TrimSpace(body))
	}
}

// The scatter-gather count merges per-file pushed-down counts across
// the cluster and matches local ground truth; probe-incompatible
// columns are skipped, not failed.
func TestRouterScatterCountMatchesLocal(t *testing.T) {
	contents, cols := testCorpus(t)
	names := []string{"n1", "n2", "n3"}
	_, perNode := placeCorpus(t, contents, names, 2)
	_, specs := startNodes(t, names, perNode, blockstore.Config{})
	r := newTestRouter(t, specs, Config{Replicas: 2, DisableHedge: true})

	// A string probe asks only the string column.
	probe := cols["t/s.btr"].Strings.At(1)
	sc, err := r.CountEqScatter(testCtx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Partial {
		t.Fatalf("scatter partial: %+v", sc)
	}
	want, err := btrblocks.Count(contents["t/s.btr"], btrblocks.StringEq(probe), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Count != want {
		t.Fatalf("scatter %q: got %d, want %d", probe, sc.Count, want)
	}
	if sc.Files != 1 {
		t.Fatalf("string probe scattered to %d files, want 1", sc.Files)
	}

	// An int probe asks the int, bigint, and double columns.
	sc, err = r.CountEqScatter(testCtx, "42")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Partial {
		t.Fatalf("scatter partial: %+v", sc)
	}
	if sc.Files != 4 {
		t.Fatalf("probe 42 scattered to %d files, want 4 (int, bigint, double, string)", sc.Files)
	}
	wantTotal := 0
	for _, name := range []string{"t/i.btr", "t/l.btr", "t/d.btr", "t/s.btr"} {
		res, err := countLocal(contents[name], cols[name].Type, "42")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantTotal += res
	}
	if sc.Count != wantTotal {
		t.Fatalf("scatter 42: got %d, want %d", sc.Count, wantTotal)
	}
	if r.Metrics().ScatterQueries.Load() != 2 {
		t.Errorf("scatter query counter: %d, want 2", r.Metrics().ScatterQueries.Load())
	}
}

func countLocal(data []byte, typ btrblocks.Type, value string) (int, error) {
	p, err := btrblocks.ParseEq(typ, value)
	if err != nil {
		return 0, err
	}
	return btrblocks.Count(data, p, nil)
}

// An unmodified blockstore.Client pointed at the router server sees one
// logical store: listing, meta, raw, blocks, counts, invalidation.
func TestRouterServesBlockstoreWireProtocol(t *testing.T) {
	contents, cols := testCorpus(t)
	names := []string{"n1", "n2", "n3"}
	_, perNode := placeCorpus(t, contents, names, 2)
	_, specs := startNodes(t, names, perNode, blockstore.Config{})
	r := newTestRouter(t, specs, Config{Replicas: 2, DisableHedge: true})
	srv := httptest.NewServer(NewServer(r, nil))
	t.Cleanup(srv.Close)
	cl := blockstore.NewClient(srv.URL)

	if err := cl.Healthz(testCtx); err != nil {
		t.Fatal(err)
	}
	files, err := cl.Files(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(contents) {
		t.Fatalf("client lists %d files, corpus has %d", len(files), len(contents))
	}
	const name = "t/d.btr"
	meta, err := cl.FileMeta(testCtx, name)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Blocks != blockCount(t, contents[name]) {
		t.Fatalf("meta blocks %d, want %d", meta.Blocks, blockCount(t, contents[name]))
	}
	raw, err := cl.Raw(testCtx, name)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(contents[name]) {
		t.Fatal("raw bytes through router differ from the stored file")
	}
	part, err := cl.RawRange(testCtx, name, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if string(part) != string(contents[name][4:20]) {
		t.Fatal("ranged raw bytes differ")
	}
	verifyColumn(t, cols[name], meta.Blocks, func(b int) (*blockstore.BlockValues, error) {
		return cl.Block(testCtx, name, b)
	})
	// JSON block format agrees with the binary one.
	verifyColumn(t, cols[name], meta.Blocks, func(b int) (*blockstore.BlockValues, error) {
		return cl.BlockJSON(testCtx, name, b)
	})
	col := cols[name]
	rows, _, err := cl.ScanColumn(testCtx, name, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rows != col.Len() {
		t.Fatalf("scan rows %d, want %d", rows, col.Len())
	}
	if _, err := cl.Invalidate(testCtx, name); err != nil {
		t.Fatal(err)
	}

	// /v1/nodes reports every member up with client counters.
	resp, err := http.Get(srv.URL + "/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Replicas != 2 || len(status.Nodes) != 3 {
		t.Fatalf("cluster status: %+v", status)
	}
	for _, n := range status.Nodes {
		if !n.Up {
			t.Errorf("node %s reported down", n.Name)
		}
	}

	// /metrics renders the btrrouted families.
	text, err := cl.MetricsText(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"btrrouted_block_fetches_total",
		"btrrouted_replica_requests_total",
		"btrrouted_http_requests_total",
		"btrrouted_nodes_up",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// The prober flips nodes down and back up, driving the gauge and the
// transition counter.
func TestMembershipProbeTransitions(t *testing.T) {
	contents, _ := testCorpus(t)
	names := []string{"n1", "n2"}
	_, perNode := placeCorpus(t, contents, names, 2)
	nodes, specs := startNodes(t, names, perNode, blockstore.Config{})
	r := newTestRouter(t, specs, Config{Replicas: 2, DisableHedge: true, ProbeTimeout: time.Second})

	mem := r.Membership()
	mem.ProbeOnce(testCtx)
	if got := r.Metrics().NodesUp.Load(); got != 2 {
		t.Fatalf("nodes_up %d, want 2", got)
	}
	nodes[1].srv.Close()
	mem.ProbeOnce(testCtx)
	if got := r.Metrics().NodesUp.Load(); got != 1 {
		t.Fatalf("nodes_up %d after kill, want 1", got)
	}
	if got := r.Metrics().ProbeTransitions.Load(); got != 1 {
		t.Fatalf("probe transitions %d, want 1", got)
	}
	var down *Node
	for _, n := range mem.Nodes() {
		if n.Name == "n2" {
			down = n
		}
	}
	if down.Up() {
		t.Fatal("killed node still reported up")
	}
}

// A format=binary block through the router is the node's reply byte for
// byte, with its length declared; format=json still carries the same
// values; and a frame a replica mangles is failed over, not passed on.
func TestRouterPassesBinaryFramesThrough(t *testing.T) {
	contents, cols := testCorpus(t)
	names := []string{"n1", "n2", "n3"}
	ring, perNode := placeCorpus(t, contents, names, 2)
	nodes, specs := startNodes(t, names, perNode, blockstore.Config{})
	r := newTestRouter(t, specs, Config{Replicas: 2, DisableHedge: true})
	srv := httptest.NewServer(NewServer(r, nil))
	t.Cleanup(srv.Close)
	cl := blockstore.NewClient(srv.URL)

	get := func(base, path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, %v", path, resp.StatusCode, err)
		}
		return resp, body
	}
	routed := r.metrics.HTTP.Requests.At("/v1/block")
	for name, col := range cols {
		owner := nodes[ring.Place(name, 2)[0]]
		for b := 0; b < blockCount(t, contents[name]); b++ {
			path := "/v1/block?format=binary&file=" + name + "&block=" + strconv.Itoa(b)
			_, want := get(owner.srv.URL, path)
			before := routed.Load()
			resp, got := get(srv.URL, path)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s#%d: routed frame differs from the node's", name, b)
			}
			if routed.Load() != before+1 {
				t.Fatalf("%s#%d: reply complete before the router counted the request", name, b)
			}
			if resp.ContentLength != int64(len(want)) || len(resp.TransferEncoding) != 0 {
				t.Fatalf("%s#%d: routed reply has Content-Length %d, Transfer-Encoding %v; frame is %d bytes",
					name, b, resp.ContentLength, resp.TransferEncoding, len(want))
			}
		}
		blocks := blockCount(t, contents[name])
		verifyColumn(t, col, blocks, func(b int) (*blockstore.BlockValues, error) { return cl.BlockJSON(testCtx, name, b) })
		verifyColumn(t, col, blocks, func(b int) (*blockstore.BlockValues, error) { return r.FetchBlock(testCtx, name, b) })
	}

	// A replica whose frames arrive with a null position past the block:
	// the router's check refuses them and the other replica answers.
	const victim = "t/i.btr"
	placed := ring.Place(victim, 2)
	_, good := get(nodes[placed[1]].srv.URL, "/v1/block?format=binary&file="+victim+"&block=0")
	mangler := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/block" {
			nodes[placed[0]].srv.Config.Handler.ServeHTTP(w, req)
			return
		}
		bad := append([]byte(nil), good...)
		bad[18], bad[19], bad[20], bad[21] = 0xff, 0xff, 0xff, 0x7f
		_, _ = w.Write(bad)
	}))
	t.Cleanup(mangler.Close)
	specs[placed[0]] = names[placed[0]] + "=" + mangler.URL
	r2 := newTestRouter(t, specs, Config{Replicas: 2, DisableHedge: true})
	frame, err := r2.FetchBlockFrame(testCtx, victim, 0)
	if err != nil || !bytes.Equal(frame, good) {
		t.Fatalf("fetch past a mangling replica: %v", err)
	}
	if r2.Metrics().Failovers.Load() != 1 {
		t.Fatalf("failovers = %d, want 1", r2.Metrics().Failovers.Load())
	}
}
