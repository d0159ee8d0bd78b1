package ingest

import (
	"sync/atomic"

	"btrblocks/internal/obs"
)

// Metrics counts the service's behavior; Registry lists it as /metrics
// exposes it. All fields are safe for concurrent use; the zero value is
// ready (NewMetrics exists for symmetry with blockstore).
type Metrics struct {
	// Append path.
	Appends      atomic.Int64 // acknowledged append batches
	AppendedRows atomic.Int64 // acknowledged rows
	AppendErrors atomic.Int64 // rejected or failed appends

	// WAL.
	WALRecords        atomic.Int64 // records framed and written
	WALBytes          atomic.Int64 // bytes framed and written
	WALSyncs          atomic.Int64 // fsyncs issued (group commit coalesces)
	WALCheckpoints    atomic.Int64 // segment rotations after full publish
	WALReplayed       atomic.Int64 // records recovered at startup
	WALReplayedRows   atomic.Int64 // rows recovered at startup
	WALSkippedRecords atomic.Int64 // replayed records already published
	WALDiscardedTails atomic.Int64 // torn/invalid tails discarded at replay
	WALDiscardedBytes atomic.Int64 // bytes in discarded tails

	// Flush / publish.
	Flushes         atomic.Int64 // chunks published
	FlushedRows     atomic.Int64 // rows published
	PublishedFiles  atomic.Int64 // column files renamed into the store
	PublishedBytes  atomic.Int64 // compressed bytes published
	PublishErrors   atomic.Int64 // failed flush attempts (rows retained)
	UncommittedDrop atomic.Int64 // startup removals of uncommitted files

	// Compaction.
	Compactions           atomic.Int64 // compaction runs that published
	CompactedChunks       atomic.Int64 // input chunks consumed
	CompactedRows         atomic.Int64 // rows re-compressed
	CompactionBytesBefore atomic.Int64 // input compressed bytes
	CompactionBytesAfter  atomic.Int64 // output compressed bytes
	SupersededChunks      atomic.Int64 // startup removals of compacted-over chunks

	// Invalidations pushed to the serving layer.
	Invalidations atomic.Int64

	// Latency histograms.
	AppendLatency  obs.Histogram // whole append incl. WAL sync
	WALSyncLatency obs.Histogram // fsync wait (group-commit amortized)
	FlushLatency   obs.Histogram // compress + publish of one chunk
	CompactLatency obs.Histogram // one compaction run

	// HTTP is the per-route series of the service's handler.
	HTTP obs.Routes
}

// NewMetrics returns an empty Metrics.
func NewMetrics() *Metrics { return &Metrics{} }

// Registry lists the metrics as btringest exposes them on /metrics,
// followed by the span recorder's counters.
func (m *Metrics) Registry(spans *obs.SpanRecorder) *obs.Registry {
	r := &obs.Registry{}
	r.Counter("btringest_appends_total", "Acknowledged append batches.", &m.Appends)
	r.Counter("btringest_appended_rows_total", "Acknowledged rows.", &m.AppendedRows)
	r.Counter("btringest_append_errors_total", "Rejected or failed appends.", &m.AppendErrors)
	r.Counter("btringest_wal_records_total", "WAL records written.", &m.WALRecords)
	r.Counter("btringest_wal_bytes_total", "WAL bytes written (frames included).", &m.WALBytes)
	r.Counter("btringest_wal_syncs_total", "WAL fsyncs issued (group commit coalesces).", &m.WALSyncs)
	r.Counter("btringest_wal_checkpoints_total", "WAL segment rotations after full publish.", &m.WALCheckpoints)
	r.Counter("btringest_wal_replayed_records_total", "WAL records recovered at startup.", &m.WALReplayed)
	r.Counter("btringest_wal_replayed_rows_total", "Rows recovered from the WAL at startup.", &m.WALReplayedRows)
	r.Counter("btringest_wal_skipped_records_total", "Replayed WAL records already covered by published chunks.", &m.WALSkippedRecords)
	r.Counter("btringest_wal_discarded_tails_total", "Torn or invalid WAL tails discarded at replay.", &m.WALDiscardedTails)
	r.Counter("btringest_wal_discarded_bytes_total", "Bytes in discarded WAL tails.", &m.WALDiscardedBytes)
	r.Counter("btringest_flushes_total", "Chunks published.", &m.Flushes)
	r.Counter("btringest_flushed_rows_total", "Rows published.", &m.FlushedRows)
	r.Counter("btringest_published_files_total", "Column files atomically renamed into the store.", &m.PublishedFiles)
	r.Counter("btringest_published_bytes_total", "Compressed bytes published.", &m.PublishedBytes)
	r.Counter("btringest_publish_errors_total", "Failed flush attempts (rows retained in the buffer).", &m.PublishErrors)
	r.Counter("btringest_uncommitted_dropped_total", "Uncommitted chunk files removed at startup.", &m.UncommittedDrop)
	r.Counter("btringest_compactions_total", "Compaction runs that published a merged chunk.", &m.Compactions)
	r.Counter("btringest_compacted_chunks_total", "Small chunks consumed by compaction.", &m.CompactedChunks)
	r.Counter("btringest_compacted_rows_total", "Rows re-compressed by compaction.", &m.CompactedRows)
	r.Counter("btringest_compaction_bytes_before_total", "Compressed bytes entering compaction.", &m.CompactionBytesBefore)
	r.Counter("btringest_compaction_bytes_after_total", "Compressed bytes leaving compaction.", &m.CompactionBytesAfter)
	r.Counter("btringest_superseded_chunks_total", "Chunks removed at startup because a compacted chunk covers them.", &m.SupersededChunks)
	r.Counter("btringest_invalidations_total", "Cache invalidations pushed to the serving layer.", &m.Invalidations)
	r.Histogram("btringest_append_duration_seconds", "Append latency including WAL sync.", &m.AppendLatency)
	r.Histogram("btringest_wal_sync_duration_seconds", "WAL fsync wait (group-commit amortized).", &m.WALSyncLatency)
	r.Histogram("btringest_flush_duration_seconds", "Chunk compress+publish latency.", &m.FlushLatency)
	r.Histogram("btringest_compact_duration_seconds", "Compaction run latency.", &m.CompactLatency)
	r.Gauge("btringest_inflight_requests", "HTTP requests currently being served.", &m.HTTP.InFlight)
	r.Routes("btringest", &m.HTTP)
	r.Spans("btringest", spans)
	return r
}
