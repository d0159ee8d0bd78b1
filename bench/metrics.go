package main

import (
	"sort"
)

// metricDef is one row of the catalogue. BENCHMARK.json carries the
// same rows; bench_test.go fails when the two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a client of the system sees, measured with the
// benchmark's tracing off. Every workload reports every one of them;
// README.md says what an "op" and a "value byte" are on each workload.
//
// The bounds are sized from the run-to-run spread (interquartile range
// over median, ten seeds) on the 2-core reference host: at most 0.13 for
// op_p50_ms and 0.10 for op_p99_ms (both on ingest; 0.01 to 0.06
// elsewhere), 0.06 for the rates, 0.02 for memory, 0.002 for the stored
// ratio. README.md has the table. Tighter bounds would reject changes on
// noise.
var endToEnd = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "value_mbps", Unit: "MB/s", Better: "higher", Bound: 0.20},
	{Name: "stored_ratio", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the single-layer numbers of the traced run. Names
// start with the module they measure. Every workload prints every one;
// a layer the workload never enters reports 0.
var perLayer = []metricDef{
	{Name: "btrblocks.compress_int_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "btrblocks.compress_double_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "btrblocks.compress_string_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "btrblocks.pick_share", Unit: "ratio", Better: "lower"},
	{Name: "btrblocks.decompress_int_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "btrblocks.decompress_double_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "btrblocks.decompress_string_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "btrblocks.decode_block_us", Unit: "us", Better: "lower"},
	{Name: "btrblocks.decode_allocs_per_block", Unit: "count", Better: "lower"},
	{Name: "btrblocks.ratio_int", Unit: "ratio", Better: "higher"},
	{Name: "btrblocks.ratio_double", Unit: "ratio", Better: "higher"},
	{Name: "btrblocks.ratio_string", Unit: "ratio", Better: "higher"},

	{Name: "bitpack.unpack_mixed_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "bitpack.pack_mbps", Unit: "MB/s", Better: "higher"},

	{Name: "fsst.decode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "fsst.encode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "fsst.train_ms", Unit: "ms", Better: "lower"},

	{Name: "roaring.and_us", Unit: "us", Better: "lower"},
	{Name: "roaring.or_us", Unit: "us", Better: "lower"},
	{Name: "roaring.addrange_us", Unit: "us", Better: "lower"},
	{Name: "roaring.serialize_us", Unit: "us", Better: "lower"},

	{Name: "metadata.prune_us", Unit: "us", Better: "lower"},
	{Name: "metadata.blocks_pruned_share", Unit: "ratio", Better: "higher"},

	{Name: "query.parse_plan_us", Unit: "us", Better: "lower"},
	{Name: "query.exec_us", Unit: "us", Better: "lower"},
	{Name: "query.q_prune_ms", Unit: "ms", Better: "lower"},
	{Name: "query.q_dict_eq_ms", Unit: "ms", Better: "lower"},
	{Name: "query.q_rle_range_ms", Unit: "ms", Better: "lower"},
	{Name: "query.q_for_range_ms", Unit: "ms", Better: "lower"},
	{Name: "query.q_and_agg_ms", Unit: "ms", Better: "lower"},
	{Name: "query.q_or_bitmap_ms", Unit: "ms", Better: "lower"},
	{Name: "query.blocks_scanned_per_query", Unit: "count", Better: "lower"},
	{Name: "query.decoded_fallback_share", Unit: "ratio", Better: "lower"},

	{Name: "blockstore.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "blockstore.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "blockstore.decoded_blocks", Unit: "count", Better: "lower"},
	{Name: "blockstore.prefetch_scheduled", Unit: "count", Better: "lower"},
	{Name: "blockstore.prefetch_dropped", Unit: "count", Better: "lower"},
	{Name: "blockstore.store_hit_us", Unit: "us", Better: "lower"},
	{Name: "blockstore.store_miss_us", Unit: "us", Better: "lower"},
	{Name: "blockstore.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "blockstore.client_self_us", Unit: "us", Better: "lower"},
	{Name: "blockstore.wire_bytes_per_value_byte", Unit: "ratio", Better: "lower"},
	{Name: "blockstore.fetch_json_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "blockstore.query_handler_self_us", Unit: "us", Better: "lower"},

	{Name: "cluster.fetch_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.query_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.router_inproc_fetch_us", Unit: "us", Better: "lower"},
	{Name: "cluster.legs_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.hedges", Unit: "count", Better: "lower"},
	{Name: "cluster.hedge_wins", Unit: "count", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},

	{Name: "ingest.append_inproc_us", Unit: "us", Better: "lower"},
	{Name: "ingest.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "ingest.wal_sync_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.wal_syncs_per_append", Unit: "ratio", Better: "lower"},
	{Name: "ingest.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "ingest.flush_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.flushes", Unit: "count", Better: "lower"},
	{Name: "ingest.compactions", Unit: "count", Better: "lower"},
	{Name: "ingest.compact_total_s", Unit: "s", Better: "lower"},
	{Name: "ingest.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "ingest.stored_ratio_precompact", Unit: "ratio", Better: "higher"},
	{Name: "ingest.drain_s", Unit: "s", Better: "lower"},

	{Name: "obs.span_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.spans_per_request", Unit: "count", Better: "lower"},

	{Name: "client.fetch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.query_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "process.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "process.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "process.cpu_s", Unit: "s", Better: "lower"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.unattributed_share", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects a run's numbers by metric name.
type values map[string]float64

// report fills every metric of defs from v (absent means 0: the layer
// did no work on this workload).
func report(defs []metricDef, v values) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

// unknownNames returns keys of v that no definition names — a typo in a
// workload would otherwise vanish silently.
func unknownNames(defs []metricDef, v values) []string {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
	}
	var bad []string
	for k := range v {
		if !known[k] {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}
