package blockstore

import (
	"sync/atomic"

	"btrblocks/internal/obs"
)

// Metrics holds the blockstore's operational counters: cache behavior,
// decode work, prefetch activity, and the per-route HTTP series. All
// fields are updated with atomics, so one Metrics is shared by the
// store, the cache and the HTTP server without locking on the hot path.
// Registry lists them as /metrics exposes them.
type Metrics struct {
	CacheHits         atomic.Int64
	CacheMisses       atomic.Int64
	CacheEvictions    atomic.Int64
	CacheBytes        atomic.Int64 // gauge: decompressed bytes resident
	CacheEntries      atomic.Int64 // gauge
	DecodedBlocks     atomic.Int64
	DecodedBytes      atomic.Int64 // decompressed (in-memory) bytes produced
	PrefetchScheduled atomic.Int64
	PrefetchDropped   atomic.Int64
	CorruptBlocks     atomic.Int64 // decode attempts that failed with corruption
	QuarantinedBlocks atomic.Int64 // gauge: blocks currently quarantined
	Invalidations     atomic.Int64 // Invalidate calls (file reloads/removals)
	InvalidatedBlocks atomic.Int64 // cached blocks dropped by invalidation
	RepairsAccepted   atomic.Int64 // repair pushes verified and installed
	RepairsRejected   atomic.Int64 // repair pushes refused (failed verification)

	QueryRequests      atomic.Int64 // /v1/query plans executed
	QueryPredicates    atomic.Int64 // filter leaves evaluated across all queries
	QueryBlocksPruned  atomic.Int64 // candidate blocks skipped via metadata bounds
	QueryBlocksScanned atomic.Int64 // candidate blocks evaluated by a kernel

	// HTTP is the per-route series of every Server over the store.
	HTTP obs.Routes
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics { return &Metrics{} }

// Cache copies the cache and decode counters into one CacheStats.
func (m *Metrics) Cache() CacheStats {
	return CacheStats{
		Hits:              m.CacheHits.Load(),
		Misses:            m.CacheMisses.Load(),
		Evictions:         m.CacheEvictions.Load(),
		Bytes:             m.CacheBytes.Load(),
		Entries:           m.CacheEntries.Load(),
		DecodedBlocks:     m.DecodedBlocks.Load(),
		DecodedBytes:      m.DecodedBytes.Load(),
		PrefetchScheduled: m.PrefetchScheduled.Load(),
		PrefetchDropped:   m.PrefetchDropped.Load(),
		InFlight:          m.HTTP.InFlight.Load(),
		CorruptBlocks:     m.CorruptBlocks.Load(),
		QuarantinedBlocks: m.QuarantinedBlocks.Load(),
		RepairsAccepted:   m.RepairsAccepted.Load(),
		RepairsRejected:   m.RepairsRejected.Load(),
	}
}

// Registry lists the metrics as btrserved exposes them on /metrics,
// followed by the span recorder's counters.
func (m *Metrics) Registry(spans *obs.SpanRecorder) *obs.Registry {
	r := &obs.Registry{}
	r.Counter("btrserved_cache_hits_total", "Block cache hits (including singleflight joins).", &m.CacheHits)
	r.Counter("btrserved_cache_misses_total", "Block cache misses that triggered a decode.", &m.CacheMisses)
	r.Counter("btrserved_cache_evictions_total", "Blocks evicted to stay under the byte bound.", &m.CacheEvictions)
	r.Gauge("btrserved_cache_bytes", "Decompressed bytes resident in the block cache.", &m.CacheBytes)
	r.Gauge("btrserved_cache_entries", "Blocks resident in the block cache.", &m.CacheEntries)
	r.Counter("btrserved_decoded_blocks_total", "Blocks decompressed by the store.", &m.DecodedBlocks)
	r.Counter("btrserved_decoded_bytes_total", "Decompressed bytes produced by the store.", &m.DecodedBytes)
	r.Counter("btrserved_prefetch_scheduled_total", "Blocks scheduled for readahead decode.", &m.PrefetchScheduled)
	r.Counter("btrserved_prefetch_dropped_total", "Readahead blocks dropped because the queue was full.", &m.PrefetchDropped)
	r.Gauge("btrserved_inflight_requests", "HTTP requests currently being served.", &m.HTTP.InFlight)
	r.Counter("btrserved_corrupt_blocks_total", "Block decode attempts that failed with corruption (checksum mismatch, truncation, decoder rejection).", &m.CorruptBlocks)
	r.Gauge("btrserved_quarantined_blocks", "Blocks currently quarantined after repeated corrupt decodes.", &m.QuarantinedBlocks)
	r.Counter("btrserved_invalidations_total", "File invalidations (reload, add, or removal of a served file).", &m.Invalidations)
	r.Counter("btrserved_invalidated_blocks_total", "Cached blocks dropped by file invalidation.", &m.InvalidatedBlocks)
	r.Counter("btrserved_repairs_accepted_total", "Cross-replica repair pushes verified and installed.", &m.RepairsAccepted)
	r.Counter("btrserved_repairs_rejected_total", "Cross-replica repair pushes refused after failing verification.", &m.RepairsRejected)
	r.Counter("btrserved_query_requests_total", "Query plans executed by /v1/query.", &m.QueryRequests)
	r.Counter("btrserved_query_predicates_total", "Filter leaves evaluated across all queries.", &m.QueryPredicates)
	r.Counter("btrserved_query_blocks_pruned_total", "Candidate blocks skipped via metadata bounds before any decode.", &m.QueryBlocksPruned)
	r.Counter("btrserved_query_blocks_scanned_total", "Candidate blocks evaluated by a predicate kernel.", &m.QueryBlocksScanned)
	r.Routes("btrserved", &m.HTTP)
	r.Spans("btrserved", spans)
	return r
}
