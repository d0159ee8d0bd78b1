package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// workloadDef is one row of the workload table. why is the one line
// BENCHMARK.json carries; README.md has the longer argument.
type workloadDef struct {
	name string
	why  string
	// traceOps is the length of the traced stream: fixed, so counts read
	// off the servers repeat, and sized so the traced run (the stream
	// twice, then the replays) stays near the length of a measured run.
	traceOps int
	setup    func(ctx context.Context, seed int64, sc scale, t *tracer) (instance, error)
}

var workloads = []workloadDef{
	{"lake_compress",
		"the paper's write headline: PBI Largest5 + TPC-H lineitem through CompressColumn; cascade, bitpack and fsst do all the work, no server runs",
		332, func(_ context.Context, seed int64, sc scale, _ *tracer) (instance, error) {
			return setupLake(seed, sc, false)
		}},
	{"lake_decompress",
		"the paper's read headline on the same corpus and files: DecompressColumn only, so a decode win paid for in the encoder shows as a split against lake_compress",
		2490, func(_ context.Context, seed int64, sc scale, _ *tracer) (instance, error) {
			return setupLake(seed, sc, true)
		}},
	{"serve_warm",
		"one block server, cache larger than the decoded working set and pre-warmed: cache hit, wire encode, HTTP and spans dominate; decode kernels must not show",
		1500, func(ctx context.Context, seed int64, sc scale, t *tracer) (instance, error) {
			return setupServe(ctx, seed, sc, serveWarm, t)
		}},
	{"serve_cold",
		"same server and fetch stream with the cache at 1/8 of the working set: miss, CRC, cascade decode and evict dominate; kernel wins show here and not on serve_warm",
		1500, func(ctx context.Context, seed int64, sc scale, t *tracer) (instance, error) {
			return setupServe(ctx, seed, sc, serveCold, t)
		}},
	{"routed",
		"the serve_warm stream through a router over 3 nodes at R=2: scatter/gather, per-leg clients and hedging are the extra work; serve_warm is its control",
		1000, func(ctx context.Context, seed int64, sc scale, t *tracer) (instance, error) {
			return setupServe(ctx, seed, sc, serveRouted, t)
		}},
	{"ingest",
		"the write path: 500-row JSON appends acked after fsync while flush and compaction compress small chunks on the same cores; cascade compress used unlike lake_compress",
		600, func(_ context.Context, seed int64, sc scale, t *tracer) (instance, error) {
			return setupIngest(seed, sc, t)
		}},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// result is the last line a run prints, in the shape the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// Not part of the driver's contract; kept out of the JSON line.
	digest uint64
	notes  []string
}

const (
	digestOps = 4096
	// measuredFirst is the op index the measured phase starts at; the
	// warm-up stretch uses the indices below it, however many it gets to.
	measuredFirst = 1 << 24
)

// traceDir is where traces are written, relative to the checkout root
// the benchmark runs from; tests redirect it.
var traceDir = "bench/out"

// runWorkload runs one workload once and folds it into a result.
func runWorkload(ctx context.Context, w workloadDef, seed int64, seconds int, trace bool, sc scale, log io.Writer) (*result, error) {
	base := runtime.NumGoroutine()
	var res *result
	var err error
	if trace {
		res, err = runTraced(ctx, w, seed, sc, log)
	} else {
		res, err = runMeasured(ctx, w, seed, seconds, sc)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if left := settleGoroutines(base); left > 0 {
		return nil, fmt.Errorf("%s: %d goroutines still running after teardown", w.name, left)
	}
	return res, nil
}

func runMeasured(ctx context.Context, w workloadDef, seed int64, seconds int, sc scale) (*result, error) {
	var setups []float64
	var inst instance
	for k := 0; k < sc.setups; k++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC() // the next set-up should not be timed while collecting the last one
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ctx, seed, sc, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	n := callers()
	dur := time.Duration(seconds) * time.Second
	// Untimed stretch: connections open, pools fill, the runtime sizes
	// its heap. Its failures still count.
	warm := closedLoop(ctx, inst, n, dur/20, 0, 0)
	run := closedLoop(ctx, inst, n, dur, measuredFirst, 0)
	ratio, _, err := inst.finish(ctx)
	if err != nil {
		return nil, err
	}

	ws := foldWindows(run)
	v := values{
		"op_p50_ms":    ws.p50ms,
		"op_p99_ms":    ws.p99ms,
		"ops_s":        ws.opsPerS,
		"value_mbps":   ws.mbPerS,
		"stored_ratio": ratio,
		"peak_rss_mb":  ws.peakRSSMB,
		"setup_s":      medianFloat(setups),
	}
	failed := warm.failed + run.failed
	return &result{
		Correct:   failed == 0,
		Attempted: int64(len(warm.samples) + len(run.samples)),
		Failed:    failed,
		Metrics:   report(endToEnd, v),
		digest:    sequenceDigest(inst, digestOps),
		notes: []string{fmt.Sprintf("%d callers, closed loop; %d timed ops in %.2fs; p99 over all of them, the rest trimmed means of %d equal time windows",
			n, len(run.samples), run.wall.Seconds(), statWindows)},
	}, nil
}

// spanMetrics maps folded spans to per-layer metrics: the mean self
// time (span minus children) or the mean duration of every span of one
// layer and name. A metric whose spans never occur stays 0.
var spanMetrics = []struct {
	metric, layer, name string
	self                bool
}{
	{"blockstore.client_self_us", "client", "fetch", true},
	{"blockstore.handler_self_us", "blockstore", "GET /v1/block", true},
	{"blockstore.store_hit_us", "blockstore", "replay Store.BlockContext hit", false},
	{"blockstore.store_miss_us", "blockstore", "replay Store.BlockContext miss", false},
	{"btrblocks.decode_block_us", "btrblocks", "replay DecompressBlock", false},
	{"blockstore.query_handler_self_us", "blockstore", "POST /v1/query", true},
	{"query.parse_plan_us", "query", "replay ParsePlan", false},
	{"query.exec_us", "query", "replay Store.QueryContext", false},
	{"ingest.handler_self_us", "ingest", "POST /v1/append", true},
	{"ingest.append_inproc_us", "ingest", "replay Service.AppendContext", false},
}

func runTraced(ctx context.Context, w workloadDef, seed int64, sc scale, log io.Writer) (*result, error) {
	t := newTracer()
	inst, err := w.setup(ctx, seed, sc, t)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()

	// The same fixed stream first runs untraced with one caller: its op
	// time is what the traced client spans are compared with, and the
	// process counters are read around it, free of replay work.
	ops := w.traceOps / sc.traceDiv
	u0 := readUsage()
	ref := closedLoop(ctx, inst, 1, 0, 0, uint64(ops))
	u1 := readUsage()
	ids, ns := make([]uint64, ops), make([]int64, ops)
	for i := range ids {
		t.on.Store(true)
		t0 := time.Now()
		out := inst.do(ctx, uint64(i))
		t1 := time.Now()
		t.on.Store(false)
		if !out.ok {
			return nil, fmt.Errorf("traced op %d (%s) failed", i, inst.describe(uint64(i)))
		}
		ids[i], ns[i] = t.add(0, "client", inst.spanName(uint64(i)), t0, t1, false), t1.Sub(t0).Nanoseconds()
	}
	v, err := inst.replay(ctx, t, ids, ns, sc)
	if err != nil {
		return nil, err
	}
	_, late, err := inst.finish(ctx)
	if err != nil {
		return nil, err
	}
	for k, x := range late {
		v[k] = x
	}

	spans := t.fold()
	self, over := selfTimes(spans)
	var clientNS, refNS int64
	type acc struct {
		sum int64
		n   int
	}
	selfBy, durBy := map[string]*acc{}, map[string]*acc{}
	bump := func(m map[string]*acc, k string, ns int64) {
		if m[k] == nil {
			m[k] = &acc{}
		}
		m[k].sum += ns
		m[k].n++
	}
	for i := range spans {
		s := &spans[i]
		if s.layer == "client" {
			clientNS += s.dur()
		}
		bump(selfBy, s.layer+"|"+s.name, self[s.id])
		bump(durBy, s.layer+"|"+s.name, s.dur())
	}
	for _, s := range ref.samples {
		refNS += s.ns
	}
	for _, sm := range spanMetrics {
		m := durBy
		if sm.self {
			m = selfBy
		}
		if a := m[sm.layer+"|"+sm.name]; a != nil && v[sm.metric] == 0 {
			v[sm.metric] = float64(a.sum) / 1e3 / float64(a.n)
		}
	}
	v["bench.unattributed_share"] = float64(over) / float64(clientNS)
	v["bench.trace_overhead_pct"] = 100 * float64(clientNS-refNS) / float64(refNS)
	v["process.alloc_bytes_per_op"] = float64(u1.totalAlloc-u0.totalAlloc) / float64(ops)
	v["process.gc_pause_total_ms"] = float64((u1.gcPause - u0.gcPause).Nanoseconds()) / 1e6
	v["process.cpu_s"] = (u1.cpu - u0.cpu).Seconds()

	if bad := unknownNames(perLayer, v); len(bad) > 0 {
		return nil, fmt.Errorf("metric names missing from the catalogue: %v", bad)
	}
	path, err := writeTrace(traceDir, w.name, spans)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	res := &result{
		Correct:   ref.failed == 0,
		Attempted: int64(len(ref.samples) + ops),
		Failed:    ref.failed,
		Metrics:   report(perLayer, v),
		digest:    sequenceDigest(inst, digestOps),
		notes:     []string{fmt.Sprintf("1 caller; %d traced ops after the same %d untraced; %d spans in %s", ops, ops, len(spans), path)},
	}
	printSelfTable(log, spans, self)
	return res, nil
}

// printSelfTable prints self time by layer, the per-layer table the
// metrics are cut from.
func printSelfTable(w io.Writer, spans []span, self map[uint64]int64) {
	byLayer := map[string]int64{}
	var total int64
	for i := range spans {
		if spans[i].parent == 0 && spans[i].layer != "client" {
			continue // control replays are comparisons, not part of any op
		}
		byLayer[spans[i].layer] += self[spans[i].id]
		total += self[spans[i].id]
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "# self time by layer over the traced ops (client = client code + loopback + reply decode)\n")
	for _, l := range layers {
		fmt.Fprintf(w, "#   %-12s %10.3f ms  %5.1f %%\n", l, float64(byLayer[l])/1e6, 100*float64(byLayer[l])/float64(max(total, 1)))
	}
}
