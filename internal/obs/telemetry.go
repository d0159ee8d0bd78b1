package obs

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"btrblocks/internal/core"
)

// This file collects per-block compression telemetry: which scheme the
// sampling-based selection chose at every cascade level, the estimated
// versus achieved compression ratio, byte counts, cascade depth, and
// where the compression time went (scheme selection versus encoding).
//
// The entry point is Telemetry. A nil *Telemetry is valid and disables
// all collection: every method is a no-op on nil, so the compression
// path can call RecordBlock unconditionally behind a single pointer
// check. The recorder is safe for concurrent use — CompressChunk records
// from many worker goroutines. Snapshot returns an immutable aggregate
// view (the data behind the paper's Table 2 and Figure 2), and
// TelemetrySnapshot.Report renders it as text.

// BlockEvent is the telemetry record for one compressed block.
type BlockEvent struct {
	// Column and Block identify the block: column name and zero-based
	// block index within the column.
	Column string
	Block  int
	// Type is the column's type name ("integer", "double", …).
	Type string
	// Rows is the number of values in the block.
	Rows int
	// Scheme is the root scheme chosen for the block.
	Scheme string
	// EstimatedRatio is the root pick's sample-based estimate;
	// ActualRatio is InputBytes/OutputBytes as achieved.
	EstimatedRatio float64
	ActualRatio    float64
	// InputBytes and OutputBytes are the block's uncompressed size and
	// the size of its encoded data stream (excluding the block framing
	// and NULL bitmap).
	InputBytes  int
	OutputBytes int
	// CascadeDepth is the number of cascade levels actually used
	// (1 = the root scheme had no compressed sub-streams).
	CascadeDepth int
	// SampleNanos is the total scheme-selection time across all levels;
	// CompressNanos is the block's total wall-clock compression time
	// (selection included).
	SampleNanos   int64
	CompressNanos int64
	// Levels lists every selection decision in the block in the order
	// the cascade made them (sub-streams first, the root last), as
	// childless decision-trace nodes.
	Levels []Node
}

// BlockEventFromDecisions flattens a block's decision trail into its
// telemetry record.
func BlockEventFromDecisions(column string, block int, typ string, rows int, compressNanos int64, decisions []core.Decision) BlockEvent {
	ev := BlockEvent{Column: column, Block: block, Type: typ, Rows: rows, CompressNanos: compressNanos}
	for _, d := range decisions {
		ev.SampleNanos += d.PickNanos
		if d.Level+1 > ev.CascadeDepth {
			ev.CascadeDepth = d.Level + 1
		}
		ev.Levels = append(ev.Levels, *nodeFromDecision(d))
	}
	// Decisions arrive post-order, so the block's root decision is last.
	if n := len(ev.Levels); n > 0 {
		root := &ev.Levels[n-1]
		ev.Scheme = root.Scheme
		ev.EstimatedRatio = root.EstimatedRatio
		ev.InputBytes = root.InputBytes
		ev.OutputBytes = root.OutputBytes
		ev.ActualRatio = root.ActualRatio
	}
	return ev
}

// ratioBuckets are the upper bounds of the compression-ratio histogram;
// the last bucket is unbounded.
var ratioBuckets = [...]float64{1, 2, 4, 8, 16, 32, 64, 128}

// RatioHistogram counts blocks by achieved compression ratio in
// power-of-two buckets: [0,1), [1,2), [2,4), … [128,∞).
type RatioHistogram struct {
	Counts [len(ratioBuckets) + 1]int
}

func (h *RatioHistogram) add(ratio float64) {
	for i, ub := range ratioBuckets {
		if ratio < ub {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(ratioBuckets)]++
}

// BucketLabel returns the human-readable range of bucket i.
func (h *RatioHistogram) BucketLabel(i int) string {
	if i == 0 {
		return fmt.Sprintf("<%gx", ratioBuckets[0])
	}
	if i == len(ratioBuckets) {
		return fmt.Sprintf(">=%gx", ratioBuckets[len(ratioBuckets)-1])
	}
	return fmt.Sprintf("%g-%gx", ratioBuckets[i-1], ratioBuckets[i])
}

// Total returns the number of blocks counted.
func (h *RatioHistogram) Total() int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Telemetry accumulates block events and aggregate counters. The zero
// value is ready to use; a nil *Telemetry discards everything.
type Telemetry struct {
	mu sync.Mutex
	// agg is the aggregate state Snapshot copies out; its latency and
	// parallel-path fields are filled from the fields below.
	agg TelemetrySnapshot

	// Per-block latency distributions: sums alone hide tail behavior, so
	// compress and decode wall times also feed shared log-scale
	// histograms (p50/p95/p99 in Snapshot).
	compressHist Histogram
	decodeHist   Histogram

	// Parallel-path scheduling stats (RecordWorkers / ObserveQueueWait),
	// keyed by path name ("decompress_chunk", "query", …). Histograms
	// contain atomics, so entries are held by pointer.
	parallelPaths map[string]*parallelPath
}

// parallelPath aggregates pool scheduling data for one named path.
type parallelPath struct {
	workers   int // worker count of the most recent run
	runs      int64
	queueWait Histogram
}

// NewTelemetry returns an empty enabled recorder.
func NewTelemetry() *Telemetry { return &Telemetry{} }

// Enabled reports whether the recorder collects anything (i.e. is
// non-nil).
func (r *Telemetry) Enabled() bool { return r != nil }

// RecordBlock adds one block event. Safe for concurrent use; a no-op on
// a nil receiver.
func (r *Telemetry) RecordBlock(ev BlockEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a := &r.agg
	a.Events = append(a.Events, ev)
	a.Blocks++
	a.InputBytes += int64(ev.InputBytes)
	a.OutputBytes += int64(ev.OutputBytes)
	a.SampleNanos += ev.SampleNanos
	a.CompressNanos += ev.CompressNanos
	if a.RootPicks == nil {
		a.RootPicks = make(map[string]map[string]int)
		a.CascadePicks = make(map[string]map[string]int)
		a.DepthHist = make(map[int]int)
	}
	bump(a.RootPicks, ev.Type, ev.Scheme)
	for _, lv := range ev.Levels {
		bump(a.CascadePicks, lv.Kind, lv.Scheme)
	}
	a.DepthHist[ev.CascadeDepth]++
	a.RatioHist.add(ev.ActualRatio)
	r.compressHist.Observe(time.Duration(ev.CompressNanos))
}

func bump(m map[string]map[string]int, outer, inner string) {
	mm := m[outer]
	if mm == nil {
		mm = make(map[string]int)
		m[outer] = mm
	}
	mm[inner]++
}

// RecordDecode adds decode-side counters: blocks decoded, values
// produced, compressed payload bytes consumed, and decode wall time.
// The file layer calls it once per decompressed block, so decoders of
// served columns can be audited (e.g. a block cache proving that
// concurrent requests for one block decoded it exactly once). Safe for
// concurrent use; a no-op on a nil receiver.
func (r *Telemetry) RecordDecode(blocks, values, compressedBytes int, nanos int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.agg.DecodeBlocks += int64(blocks)
	r.agg.DecodeValues += int64(values)
	r.agg.DecodeBytes += int64(compressedBytes)
	r.agg.DecodeNanos += nanos
	r.decodeHist.Observe(time.Duration(nanos))
}

// RecordCorruption counts blocks (or containers) that failed checksum
// verification on a decode path. Damage is thereby observable on the
// same recorder that watches the healthy traffic. Safe for concurrent
// use; a no-op on a nil receiver.
func (r *Telemetry) RecordCorruption(blocks int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.agg.CorruptBlocks += int64(blocks)
}

// RecordWorkers notes one worker-pool run on the named parallel path
// with the given worker count. Called by the format layer's pool engine
// once per run; satisfies parallel.Observer. Safe for concurrent use; a
// no-op on a nil receiver.
func (r *Telemetry) RecordWorkers(path string, workers int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.parallelPath(path)
	p.workers = workers
	p.runs++
}

// ObserveQueueWait records how long one task of the named parallel path
// waited between pool start and a worker claiming it. Safe for
// concurrent use; a no-op on a nil receiver.
func (r *Telemetry) ObserveQueueWait(path string, wait time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	p := r.parallelPath(path)
	r.mu.Unlock()
	// The histogram is atomic; observing outside the lock keeps the hot
	// claim path cheap.
	p.queueWait.Observe(wait)
}

// parallelPath returns the named path entry, creating it. Caller holds
// r.mu.
func (r *Telemetry) parallelPath(path string) *parallelPath {
	if r.parallelPaths == nil {
		r.parallelPaths = make(map[string]*parallelPath)
	}
	p := r.parallelPaths[path]
	if p == nil {
		p = &parallelPath{}
		r.parallelPaths[path] = p
	}
	return p
}

// Reset discards all recorded data.
func (r *Telemetry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.agg = TelemetrySnapshot{}
	r.compressHist.Reset()
	r.decodeHist.Reset()
	r.parallelPaths = nil
}

// TelemetrySnapshot is an immutable copy of a Telemetry's state.
type TelemetrySnapshot struct {
	// Blocks is the number of blocks recorded.
	Blocks int
	// InputBytes and OutputBytes sum the per-block byte counts.
	InputBytes  int64
	OutputBytes int64
	// SampleNanos and CompressNanos sum selection and total compression
	// time across blocks.
	SampleNanos   int64
	CompressNanos int64
	// RootPicks counts root-scheme choices per column type
	// (type → scheme → blocks); CascadePicks counts every cascade-level
	// choice per stream kind (kind → scheme → streams).
	RootPicks    map[string]map[string]int
	CascadePicks map[string]map[string]int
	// DepthHist counts blocks by used cascade depth.
	DepthHist map[int]int
	// RatioHist buckets blocks by achieved compression ratio.
	RatioHist RatioHistogram
	// DecodeBlocks, DecodeValues, DecodeBytes and DecodeNanos are the
	// decode-side counters: blocks decompressed, values produced,
	// compressed payload bytes consumed and decode wall time.
	DecodeBlocks int64
	DecodeValues int64
	DecodeBytes  int64
	DecodeNanos  int64
	// CorruptBlocks counts checksum-verification failures seen on decode
	// paths (RecordCorruption).
	CorruptBlocks int64
	// CompressLatency and DecodeLatency summarize the per-block wall-time
	// distributions (count, sum, estimated p50/p95/p99).
	CompressLatency HistogramSnapshot
	DecodeLatency   HistogramSnapshot
	// Parallel summarizes worker-pool scheduling per parallel path
	// (path name → workers, runs, queue-wait distribution).
	Parallel map[string]ParallelPathStats `json:",omitempty"`
	// Events holds every block event, ordered by (column, block).
	Events []BlockEvent
}

// ParallelPathStats summarizes worker-pool scheduling for one parallel
// path: the most recent worker count, how many pool runs it has seen,
// and the distribution of task queue-wait times.
type ParallelPathStats struct {
	Workers   int
	Runs      int64
	QueueWait HistogramSnapshot
}

// Snapshot returns a copy of the recorder's aggregate state. Events are
// sorted by (column, block index) so concurrent recording yields a
// deterministic snapshot. Returns a zero Snapshot on a nil receiver.
func (r *Telemetry) Snapshot() TelemetrySnapshot {
	if r == nil {
		return TelemetrySnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.agg
	s.RootPicks = copyCounts(r.agg.RootPicks)
	s.CascadePicks = copyCounts(r.agg.CascadePicks)
	s.DepthHist = make(map[int]int, len(r.agg.DepthHist))
	for d, c := range r.agg.DepthHist {
		s.DepthHist[d] = c
	}
	s.CompressLatency = r.compressHist.Snapshot()
	s.DecodeLatency = r.decodeHist.Snapshot()
	s.Events = append([]BlockEvent(nil), r.agg.Events...)
	if len(r.parallelPaths) > 0 {
		s.Parallel = make(map[string]ParallelPathStats, len(r.parallelPaths))
		for path, p := range r.parallelPaths {
			s.Parallel[path] = ParallelPathStats{
				Workers:   p.workers,
				Runs:      p.runs,
				QueueWait: p.queueWait.Snapshot(),
			}
		}
	}
	slices.SortStableFunc(s.Events, func(a, b BlockEvent) int {
		return cmp.Or(strings.Compare(a.Column, b.Column), cmp.Compare(a.Block, b.Block))
	})
	return s
}

func copyCounts(m map[string]map[string]int) map[string]map[string]int {
	out := make(map[string]map[string]int, len(m))
	for k, mm := range m {
		out[k] = maps.Clone(mm)
	}
	return out
}

// Ratio returns the overall achieved compression factor.
func (s *TelemetrySnapshot) Ratio() float64 {
	if s.OutputBytes == 0 {
		return 0
	}
	return float64(s.InputBytes) / float64(s.OutputBytes)
}

// SampleFraction returns the share of compression time spent on scheme
// selection (statistics + sampling + trial encodes), the §3.1 overhead.
func (s *TelemetrySnapshot) SampleFraction() float64 {
	if s.CompressNanos == 0 {
		return 0
	}
	return float64(s.SampleNanos) / float64(s.CompressNanos)
}

// Report renders the snapshot as a multi-section text table: totals,
// scheme-pick frequencies per type (root and all cascade levels), the
// cascade-depth distribution, and the ratio histogram.
func (s *TelemetrySnapshot) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "blocks: %d\n", s.Blocks)
	fmt.Fprintf(&b, "bytes: %d -> %d (%.2fx)\n", s.InputBytes, s.OutputBytes, s.Ratio())
	if s.CompressNanos > 0 {
		fmt.Fprintf(&b, "compress time: %v (%.1f%% scheme selection)\n",
			time.Duration(s.CompressNanos), 100*s.SampleFraction())
	}
	if s.CompressLatency.Count > 0 {
		fmt.Fprintf(&b, "compress per block: %s\n", s.CompressLatency)
	}
	if s.DecodeBlocks > 0 {
		fmt.Fprintf(&b, "decoded: %d blocks, %d values, %d compressed bytes in %v\n",
			s.DecodeBlocks, s.DecodeValues, s.DecodeBytes, time.Duration(s.DecodeNanos))
	}
	if s.DecodeLatency.Count > 0 {
		fmt.Fprintf(&b, "decode per block: %s\n", s.DecodeLatency)
	}
	if s.CorruptBlocks > 0 {
		fmt.Fprintf(&b, "corrupt blocks detected: %d\n", s.CorruptBlocks)
	}
	if len(s.Parallel) > 0 {
		b.WriteString("parallel paths:\n")
		for _, p := range sortedKeys(s.Parallel) {
			st := s.Parallel[p]
			fmt.Fprintf(&b, "  %-18s workers=%d runs=%d", p, st.Workers, st.Runs)
			if st.QueueWait.Count > 0 {
				fmt.Fprintf(&b, " queue-wait %s", st.QueueWait)
			}
			b.WriteByte('\n')
		}
	}
	writePickTable(&b, "root scheme picks (blocks)", s.RootPicks)
	writePickTable(&b, "cascade scheme picks (streams, all levels)", s.CascadePicks)
	if len(s.DepthHist) > 0 {
		b.WriteString("cascade depth used:\n")
		for _, d := range sortedKeys(s.DepthHist) {
			fmt.Fprintf(&b, "  %d: %d\n", d, s.DepthHist[d])
		}
	}
	if s.RatioHist.Total() > 0 {
		b.WriteString("achieved ratio histogram:\n")
		for i, c := range s.RatioHist.Counts {
			if c == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-8s %d\n", s.RatioHist.BucketLabel(i), c)
		}
	}
	return b.String()
}

func writePickTable(b *strings.Builder, title string, m map[string]map[string]int) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintf(b, "%s:\n", title)
	for _, typ := range sortedKeys(m) {
		picks := m[typ]
		total := 0
		for _, c := range picks {
			total += c
		}
		fmt.Fprintf(b, "  %s:\n", typ)
		for _, scheme := range sortedByCount(picks) {
			c := picks[scheme]
			fmt.Fprintf(b, "    %-14s %6d (%5.1f%%)\n", scheme, c, 100*float64(c)/float64(total))
		}
	}
}

// sortedByCount orders scheme names by descending count, then name.
func sortedByCount(m map[string]int) []string {
	keys := sortedKeys(m)
	sort.SliceStable(keys, func(i, j int) bool { return m[keys[i]] > m[keys[j]] })
	return keys
}
