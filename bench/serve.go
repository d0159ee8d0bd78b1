package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"btrblocks/internal/blockstore"
	"btrblocks/internal/cluster"
	"btrblocks/internal/query"
	"btrblocks/metadata"
)

// serveKind selects which of the three read-path workloads an instance
// is. They share the corpus, the op generator and the verification, and
// differ in one thing each: serve_cold shrinks the cache below the
// working set, routed puts a router and replication in front.
type serveKind int

const (
	serveWarm serveKind = iota
	serveCold
	serveRouted
)

// Op mix of serve_warm and routed, in percent of ops. Block fetches are
// the scan workers' bulk path; plans are the pushdown path; the JSON
// side stream keeps the text wire format under measurement without
// letting its cost (an order of magnitude above binary) own the run.
const (
	mixFetchPct = 72
	mixQueryPct = 27
)

// coldCacheShare sizes serve_cold's cache: an eighth of the decoded
// working set, so most fetches miss, decode and evict.
const coldCacheShare = 8

// opClass is what one op of the serve stream is.
type opClass uint8

const (
	classFetch opClass = iota
	classQuery
	classFetchJSON
	numClasses
)

type blockRef struct {
	col *column
	b   int
	raw int // uncompressed bytes of this block
}

type serveInst struct {
	seed     int64
	cols     []*column
	blocks   []blockRef
	table    *queryTable
	plans    [][]*planCase
	meta     metadata.ColumnMeta
	contents map[string][]byte
	cache    int64

	nodes  []*node
	router *routerFront
	cl     *blockstore.Client
	hc     *http.Client

	fetchPct, queryPct int

	// counter readings at the end of set-up; the traced run reports deltas
	cache0  blockstore.CacheStats
	spans0  uint64
	router0 routerCounters
}

func setupServe(ctx context.Context, seed int64, sc scale, kind serveKind, t *tracer) (_ *serveInst, err error) {
	s := &serveInst{seed: seed, fetchPct: mixFetchPct, queryPct: mixQueryPct}
	if kind == serveCold {
		s.fetchPct, s.queryPct = 100, 0
	}
	s.cols = genLake(sc.tableRows)
	s.table = genQueryTable(seed, sc.queryRows)
	s.cols = append(s.cols, s.table.cols...)
	if err := compressAll(s.cols); err != nil {
		return nil, err
	}
	if s.plans, err = buildPlans(seed, s.table); err != nil {
		return nil, err
	}
	s.meta = metadata.Build(s.table.cols[0].col, nil)

	s.contents = map[string][]byte{qTS + blockstore.MetaSuffix: s.meta.AppendTo(nil)}
	working := 0
	for _, c := range s.cols {
		s.contents[c.name] = c.data
		working += c.raw
		for b := 0; b < c.blocks(); b++ {
			lo, hi := c.blockRows(b)
			s.blocks = append(s.blocks, blockRef{c, b, int(int64(c.raw) * int64(hi-lo) / int64(c.col.Len()))})
		}
	}
	s.cache = shippedCacheBytes
	if kind == serveCold {
		s.cache = int64(working / coldCacheShare)
	}

	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var wrapNode, wrapRouter func(http.Handler) http.Handler
	if t != nil {
		wrapNode, wrapRouter = t.wrap("blockstore"), t.wrap("cluster")
	}
	front := ""
	if kind == serveRouted {
		if err := s.startCluster(wrapNode, wrapRouter); err != nil {
			return nil, err
		}
		front = s.router.ln.url
	} else {
		n, err := startNode("n1", s.contents, s.cache, wrapNode)
		if err != nil {
			return nil, err
		}
		s.nodes = []*node{n}
		front = n.ln.url
	}
	s.hc = keepAliveClient()
	s.cl = blockstore.NewClient(front, blockstore.WithHTTPClient(s.hc))
	if err := s.warm(ctx); err != nil {
		return nil, err
	}
	s.cache0, s.spans0 = s.cacheCounters(), s.spansRecorded()
	if s.router != nil {
		s.router0 = readRouter(s.router.router)
	}
	return s, nil
}

// startCluster places every file on R of the nodes with the ring the
// router reads with, the way a writer would. A sidecar goes where its
// column goes: a node prunes with the sidecars it hosts.
func (s *serveInst) startCluster(wrapNode, wrapRouter func(http.Handler) http.Handler) error {
	names := make([]string, clusterNodes)
	per := make(map[string]map[string][]byte, clusterNodes)
	for i := range names {
		names[i] = "n" + strconv.Itoa(i+1)
		per[names[i]] = map[string][]byte{}
	}
	ring, err := cluster.NewRing(names, 0)
	if err != nil {
		return err
	}
	for _, c := range s.cols {
		for _, n := range ring.PlaceNames(c.name, shippedReplicas) {
			per[n][c.name] = c.data
			if side, ok := s.contents[c.name+blockstore.MetaSuffix]; ok {
				per[n][c.name+blockstore.MetaSuffix] = side
			}
		}
	}
	for _, name := range names {
		n, err := startNode(name, per[name], s.cache, wrapNode)
		if err != nil {
			return err
		}
		s.nodes = append(s.nodes, n)
	}
	s.router, err = startRouter(s.nodes, wrapRouter)
	return err
}

// warm fetches every block once, so caches are in their steady state
// before anything is timed, and runs every plan variant once, checking
// its answer and that the compressed-domain path it exists for fired.
func (s *serveInst) warm(ctx context.Context) error {
	for _, ref := range s.blocks {
		bv, err := s.cl.Block(ctx, ref.col.name, ref.b)
		if err != nil {
			return fmt.Errorf("warm-up fetch %s#%d: %w", ref.col.name, ref.b, err)
		}
		if !ref.col.checkBlock(bv, ref.b) {
			return fmt.Errorf("warm-up fetch %s#%d: block differs from the generated values", ref.col.name, ref.b)
		}
	}
	if s.queryPct == 0 {
		return nil
	}
	for _, variants := range s.plans {
		for _, pc := range variants {
			res, err := s.cl.Query(ctx, pc.plan)
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", pc.name, err)
			}
			if !pc.check(res) {
				return fmt.Errorf("warm-up %s: answer differs from decode-then-filter", pc.name)
			}
			if !pc.fired(res.Stats) {
				return fmt.Errorf("warm-up %s: intended compressed path did not fire: %+v", pc.name, res.Stats)
			}
		}
	}
	return nil
}

// op decodes op i of the stream: which class, and on what.
func (s *serveInst) op(i uint64) (opClass, blockRef, *planCase) {
	h := mix64(s.seed, i)
	r := int(h % 100)
	h >>= 8
	switch {
	case r < s.fetchPct:
		return classFetch, s.blocks[h%uint64(len(s.blocks))], nil
	case r < s.fetchPct+s.queryPct:
		return classQuery, blockRef{}, pickPlan(s.plans, h)
	default:
		return classFetchJSON, s.blocks[h%uint64(len(s.blocks))], nil
	}
}

func (s *serveInst) do(ctx context.Context, i uint64) outcome {
	class, ref, pc := s.op(i)
	return s.doOn(ctx, s.cl, class, ref, pc)
}

// doOn issues one op through cl and verifies the reply.
func (s *serveInst) doOn(ctx context.Context, cl *blockstore.Client, class opClass, ref blockRef, pc *planCase) outcome {
	switch class {
	case classQuery:
		res, err := cl.Query(ctx, pc.plan)
		return outcome{ok: err == nil && pc.check(res)}
	case classFetchJSON:
		bv, err := cl.BlockJSON(ctx, ref.col.name, ref.b)
		return outcome{bytes: ref.raw, ok: err == nil && ref.col.checkBlock(bv, ref.b)}
	default:
		bv, err := cl.Block(ctx, ref.col.name, ref.b)
		return outcome{bytes: ref.raw, ok: err == nil && ref.col.checkBlock(bv, ref.b)}
	}
}

func (s *serveInst) describe(i uint64) string {
	class, ref, pc := s.op(i)
	switch class {
	case classQuery:
		return "query " + string(pc.body)
	case classFetchJSON:
		return "fetch_json " + ref.col.name + "#" + strconv.Itoa(ref.b)
	default:
		return "fetch " + ref.col.name + "#" + strconv.Itoa(ref.b)
	}
}

// finish reports what the servers may have hidden from the clients: a
// damaged block or a failover would have skewed the run silently.
func (s *serveInst) finish(context.Context) (float64, values, error) {
	for _, n := range s.nodes {
		if err := n.damage(); err != nil {
			return 0, nil, err
		}
	}
	if s.router != nil {
		m := s.router.router.Metrics()
		if m.Failovers.Load() > 0 || m.DamageDetected.Load() > 0 || m.RepairsQueued.Load() > 0 {
			return 0, nil, errors.New("router reports failovers, damage or repairs on a healthy cluster")
		}
	}
	return storedRatio(s.cols), nil, nil
}

func (s *serveInst) close() {
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	if s.router != nil {
		_ = s.router.close() // shutdown error on teardown changes nothing the run reports
	}
	for _, n := range s.nodes {
		_ = n.close()
	}
}

// cacheCounters sums the block-cache counters over the instance's nodes.
func (s *serveInst) cacheCounters() blockstore.CacheStats {
	var sum blockstore.CacheStats
	for _, n := range s.nodes {
		c := n.store.Metrics().Cache()
		sum.Hits += c.Hits
		sum.Misses += c.Misses
		sum.Evictions += c.Evictions
		sum.DecodedBlocks += c.DecodedBlocks
		sum.PrefetchScheduled += c.PrefetchScheduled
		sum.PrefetchDropped += c.PrefetchDropped
	}
	return sum
}

func (s *serveInst) spansRecorded() uint64 {
	var n uint64
	for _, nd := range s.nodes {
		n += nd.spans.Stats().Recorded
	}
	if s.router != nil {
		n += s.router.spans.Stats().Recorded
	}
	return n
}

func (s *serveInst) spanName(i uint64) string {
	class, _, pc := s.op(i)
	switch class {
	case classQuery:
		return "query " + pc.name
	case classFetchJSON:
		return "fetch_json"
	default:
		return "fetch"
	}
}

// replay issues every traced op again, in order, one boundary down on a
// twin node built from the same contents and configuration and warmed
// the same way: Store.BlockContext (and ColumnIndex.DecompressBlock when
// the twin missed) for fetches, ParsePlan and Store.QueryContext for
// plans. On routed the twin is the un-routed control instead — the same
// op through a plain client — next to Router.FetchBlock without the
// router's HTTP surface.
func (s *serveInst) replay(ctx context.Context, t *tracer, ids []uint64, ns []int64, sc scale) (values, error) {
	// Counters first: the replays below move some of them.
	v := values{}
	cache := s.cacheCounters()
	if n := cache.Hits + cache.Misses - s.cache0.Hits - s.cache0.Misses; n > 0 {
		v["blockstore.cache_hit_ratio"] = float64(cache.Hits-s.cache0.Hits) / float64(n)
	}
	v["blockstore.cache_evictions"] = float64(cache.Evictions - s.cache0.Evictions)
	v["blockstore.decoded_blocks"] = float64(cache.DecodedBlocks - s.cache0.DecodedBlocks)
	v["blockstore.prefetch_scheduled"] = float64(cache.PrefetchScheduled - s.cache0.PrefetchScheduled)
	v["blockstore.prefetch_dropped"] = float64(cache.PrefetchDropped - s.cache0.PrefetchDropped)
	// Both passes of the stream, traced and untraced, recorded spans.
	v["obs.spans_per_request"] = float64(s.spansRecorded()-s.spans0) / float64(2*len(ids))
	if s.router != nil {
		m := s.router.router.Metrics()
		if q := m.PlanQueries.Load() - s.router0.plans; q > 0 {
			v["cluster.legs_per_query"] = float64(m.PlanQueryLegs.Load()-s.router0.legs) / float64(q)
		}
		v["cluster.hedges"] = float64(m.Hedges.Load() - s.router0.hedges)
		v["cluster.hedge_wins"] = float64(m.HedgeWins.Load() - s.router0.hedgeWins)
		v["cluster.failovers"] = float64(m.Failovers.Load() - s.router0.failovers)
	}

	twin, err := startNode("twin", s.contents, s.cache, nil)
	if err != nil {
		return nil, err
	}
	defer twin.close()
	hc := keepAliveClient()
	defer hc.CloseIdleConnections()
	twinCl := blockstore.NewClient(twin.ln.url, blockstore.WithHTTPClient(hc))
	for _, ref := range s.blocks { // the twin's cache must have seen what the real one saw
		if _, err := twin.store.BlockContext(ctx, ref.col.name, ref.b); err != nil {
			return nil, err
		}
	}

	var fetchNS, queryNS, jsonNS []int64
	planNS := map[string][]int64{}
	var control, routed [numClasses]int64
	var inprocFetch, valueBytes int64
	var stats query.Stats
	for i, id := range ids {
		class, ref, pc := s.op(uint64(i))
		switch class {
		case classFetchJSON:
			jsonNS = append(jsonNS, ns[i])
			continue
		case classFetch:
			fetchNS = append(fetchNS, ns[i])
			valueBytes += int64(ref.raw)
			if s.router == nil {
				if err := s.replayFetch(ctx, t, twin.store, id, ref); err != nil {
					return nil, err
				}
				continue
			}
			r0 := time.Now()
			if _, err := s.router.router.FetchBlock(ctx, ref.col.name, ref.b); err != nil {
				return nil, err
			}
			r1 := time.Now()
			t.add(0, "cluster", "replay Router.FetchBlock", r0, r1, true)
			inprocFetch += r1.Sub(r0).Nanoseconds()
		case classQuery:
			queryNS = append(queryNS, ns[i])
			planNS[pc.name] = append(planNS[pc.name], ns[i])
			p0 := time.Now()
			if _, err := query.ParsePlan(pc.body); err != nil {
				return nil, err
			}
			p1 := time.Now()
			res, err := twin.store.QueryContext(ctx, pc.plan)
			if err != nil {
				return nil, err
			}
			p2 := time.Now()
			stats.Add(res.Stats)
			if s.router == nil {
				t.addUnder(id, "blockstore", "query", "replay ParsePlan", p0, p1)
				t.addUnder(id, "blockstore", "query", "replay Store.QueryContext", p1, p2)
				continue
			}
		}
		// routed only: the same op without the router in front.
		c0 := time.Now()
		if !s.doOn(ctx, twinCl, class, ref, pc).ok {
			return nil, fmt.Errorf("control op %d failed", i)
		}
		c1 := time.Now()
		t.add(0, "blockstore", "replay un-routed "+s.spanName(uint64(i)), c0, c1, true)
		control[class] += c1.Sub(c0).Nanoseconds()
		routed[class] += ns[i]
	}

	v["client.fetch_p50_ms"] = p50ms(fetchNS)
	v["client.query_p50_ms"] = p50ms(queryNS)
	v["blockstore.fetch_json_p50_ms"] = p50ms(jsonNS)
	for name, d := range planNS {
		v["query."+name+"_ms"] = p50ms(d)
	}
	if len(queryNS) > 0 {
		v["query.blocks_scanned_per_query"] = float64(stats.BlocksScanned) / float64(len(queryNS))
		v["metadata.blocks_pruned_share"] = float64(stats.BlocksPruned) / float64(stats.BlocksTotal)
		v["query.decoded_fallback_share"] = float64(stats.Paths.Decoded+stats.Paths.AggDecoded) / float64(max(pathCount(stats), 1))
	}
	// Handler spans carry the body bytes; over the binary fetches they
	// give the wire cost of one value byte.
	var wire int64
	for _, sp := range t.snapshot() {
		if sp.layer == s.frontLayer() && sp.name == "GET /v1/block" && sp.format == "binary" {
			wire += sp.bytes
		}
	}
	if valueBytes > 0 {
		v["blockstore.wire_bytes_per_value_byte"] = float64(wire) / float64(valueBytes)
	}
	if s.router != nil {
		if n := len(fetchNS); n > 0 {
			v["cluster.fetch_self_us"] = float64(routed[classFetch]-control[classFetch]) / 1e3 / float64(n)
			v["cluster.router_inproc_fetch_us"] = float64(inprocFetch) / 1e3 / float64(n)
		}
		if n := len(queryNS); n > 0 {
			v["cluster.query_self_us"] = float64(routed[classQuery]-control[classQuery]) / 1e3 / float64(n)
		}
	}

	if s.queryPct > 0 {
		probeRoaring(v, s.table, sc.kernelReps)
		probeMetadata(v, &s.meta, s.table, sc.kernelReps)
		probeBitpack(v, s.table.cols[3:4], sc.kernelReps, false) // q/seq: what q_for_range unpacks
	} else {
		v["btrblocks.decode_allocs_per_block"] = decodeAllocsPerBlock(s.cols)
	}
	if v["obs.span_overhead_pct"], err = spanOverhead(ctx, twin.store, twinCl, s.blocks, s.seed, len(ids)/2); err != nil {
		return nil, err
	}
	return v, nil
}

func (s *serveInst) frontLayer() string {
	if s.router != nil {
		return "cluster"
	}
	return "blockstore"
}

// replayFetch issues the fetch at the store boundary of the twin, and
// at the decoder boundary when the twin's cache missed.
func (s *serveInst) replayFetch(ctx context.Context, t *tracer, twin *blockstore.Store, client uint64, ref blockRef) error {
	m := twin.Metrics()
	miss0 := m.CacheMisses.Load()
	r0 := time.Now()
	if _, err := twin.BlockContext(ctx, ref.col.name, ref.b); err != nil {
		return err
	}
	r1 := time.Now()
	if m.CacheMisses.Load() == miss0 {
		t.addUnder(client, "blockstore", "blockstore", "replay Store.BlockContext hit", r0, r1)
		return nil
	}
	sid := t.addUnder(client, "blockstore", "blockstore", "replay Store.BlockContext miss", r0, r1)
	f := twin.File(ref.col.name)
	d0 := time.Now()
	if _, err := f.Index.DecompressBlock(f.Data, ref.b, twin.Options()); err != nil {
		return err
	}
	t.add(sid, "btrblocks", "replay DecompressBlock", d0, time.Now(), true)
	return nil
}

// spanOverhead fetches the same blocks alternately from a handler with
// span recording on (as shipped) and one with it off, both over one
// warm store, and returns the extra latency in percent.
func spanOverhead(ctx context.Context, store *blockstore.Store, on *blockstore.Client, blocks []blockRef, seed int64, n int) (float64, error) {
	bare, err := listen(blockstore.NewServer(store, blockstore.WithLogger(shippedLogger())))
	if err != nil {
		return 0, err
	}
	defer bare.close()
	hc := keepAliveClient()
	defer hc.CloseIdleConnections()
	off := blockstore.NewClient(bare.url, blockstore.WithHTTPClient(hc))
	var onNS, offNS int64
	for i := 0; i < n; i++ {
		ref := blocks[mix64(seed, uint64(i))%uint64(len(blocks))]
		// Whoever goes first pays the decode when the cache is small, so
		// the two take turns going first.
		for k := 0; k < 2; k++ {
			cl, sum := on, &onNS
			if (i+k)%2 == 1 {
				cl, sum = off, &offNS
			}
			t0 := time.Now()
			if _, err := cl.Block(ctx, ref.col.name, ref.b); err != nil {
				return 0, err
			}
			*sum += time.Since(t0).Nanoseconds()
		}
	}
	return 100 * float64(onNS-offNS) / float64(offNS), nil
}

type routerCounters struct{ plans, legs, hedges, hedgeWins, failovers int64 }

func readRouter(r *cluster.Router) routerCounters {
	m := r.Metrics()
	return routerCounters{m.PlanQueries.Load(), m.PlanQueryLegs.Load(), m.Hedges.Load(), m.HedgeWins.Load(), m.Failovers.Load()}
}

// pathCount is how many block evaluations a query's stats account for.
func pathCount(s query.Stats) int64 {
	p := s.Paths
	return p.OneValue + p.RLE + p.Dict + p.Frequency + p.FORSkipped + p.FORScanned + p.Decoded + p.AggFast + p.AggDecoded
}

func p50ms(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	return float64(quantile(s, 0.5)) / 1e6
}
