package obs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file collects per-block compression telemetry: one decision
// trace per compressed block (BlockTrace: the cascade tree of picks with
// every candidate scored, byte counts and timings), plus decode-side
// counters.
//
// The entry point is Telemetry. A nil *Telemetry is valid and disables
// all collection: every method is a no-op on nil, so the compression
// path can call RecordBlock unconditionally behind a single pointer
// check. The recorder is safe for concurrent use — CompressChunk records
// from many worker goroutines. Snapshot derives the aggregate view (the
// data behind the paper's Table 2 and Figure 2) from the block records,
// TelemetrySnapshot.Report renders it as text, and
// TelemetrySnapshot.Trace returns the records as a decision trace.

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

// Telemetry accumulates block records and decode-side counters. The
// zero value is ready to use; a nil *Telemetry discards everything.
type Telemetry struct {
	mu sync.Mutex
	// blocks holds one decision trace per compressed block, in recording
	// order; Snapshot derives every compress-side aggregate from them.
	blocks []BlockTrace

	// Decode-side counters (RecordDecode, RecordCorruption). decodeHist
	// keeps the per-block decode wall times: sums alone hide tail
	// behavior (p50/p95/p99 in Snapshot).
	decodeBlocks, decodeValues, decodeBytes, decodeNanos int64
	corruptBlocks                                        int64
	decodeHist                                           Histogram

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

// RecordBlock adds one block's decision trace. Safe for concurrent use;
// a no-op on a nil receiver.
func (r *Telemetry) RecordBlock(bt BlockTrace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.blocks = append(r.blocks, bt)
	r.mu.Unlock()
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
	r.decodeBlocks += int64(blocks)
	r.decodeValues += int64(values)
	r.decodeBytes += int64(compressedBytes)
	r.decodeNanos += nanos
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
	r.corruptBlocks += int64(blocks)
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
	r.blocks = nil
	r.decodeBlocks, r.decodeValues, r.decodeBytes, r.decodeNanos = 0, 0, 0, 0
	r.corruptBlocks = 0
	r.decodeHist.Reset()
	r.parallelPaths = nil
}

// TelemetrySnapshot is an immutable copy of a Telemetry's state. The
// compress-side fields, Blocks through CompressLatency, are derived from
// Events.
type TelemetrySnapshot struct {
	// Blocks is the number of blocks recorded.
	Blocks int
	// InputBytes and OutputBytes sum the per-block byte counts.
	InputBytes  int64
	OutputBytes int64
	// SampleNanos and CompressNanos sum selection time (PickNanos over
	// every node of every block's tree) and total compression time
	// across blocks.
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
	// Events holds every block's decision trace, ordered by (column,
	// block).
	Events []BlockTrace
}

// ParallelPathStats summarizes worker-pool scheduling for one parallel
// path: the most recent worker count, how many pool runs it has seen,
// and the distribution of task queue-wait times.
type ParallelPathStats struct {
	Workers   int
	Runs      int64
	QueueWait HistogramSnapshot
}

// Snapshot returns a copy of the recorder's state. Events are sorted by
// (column, block index) so concurrent recording yields a deterministic
// snapshot. Returns a zero Snapshot on a nil receiver.
func (r *Telemetry) Snapshot() TelemetrySnapshot {
	if r == nil {
		return TelemetrySnapshot{}
	}
	r.mu.Lock()
	s := TelemetrySnapshot{
		DecodeBlocks:  r.decodeBlocks,
		DecodeValues:  r.decodeValues,
		DecodeBytes:   r.decodeBytes,
		DecodeNanos:   r.decodeNanos,
		CorruptBlocks: r.corruptBlocks,
		DecodeLatency: r.decodeHist.Snapshot(),
		Events:        slices.Clone(r.blocks),
	}
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
	r.mu.Unlock()
	slices.SortStableFunc(s.Events, func(a, b BlockTrace) int {
		return cmp.Or(strings.Compare(a.Column, b.Column), cmp.Compare(a.Block, b.Block))
	})
	s.aggregate()
	return s
}

// aggregate derives the compress-side fields from Events.
func (s *TelemetrySnapshot) aggregate() {
	s.RootPicks = make(map[string]map[string]int)
	s.CascadePicks = make(map[string]map[string]int)
	s.DepthHist = make(map[int]int)
	var latency Histogram
	for i := range s.Events {
		b := &s.Events[i]
		s.Blocks++
		s.CompressNanos += b.CompressNanos
		latency.Observe(time.Duration(b.CompressNanos))
		s.DepthHist[b.CascadeDepth]++
		if b.Root == nil {
			continue
		}
		s.InputBytes += int64(b.Root.InputBytes)
		s.OutputBytes += int64(b.Root.OutputBytes)
		s.RatioHist.add(b.Root.ActualRatio)
		bump(s.RootPicks, b.Type, b.Root.Scheme)
		b.Root.walk(func(n *Node) {
			s.SampleNanos += n.PickNanos
			bump(s.CascadePicks, n.Kind, n.Scheme)
		})
	}
	s.CompressLatency = latency.Snapshot()
}

func bump(m map[string]map[string]int, outer, inner string) {
	mm := m[outer]
	if mm == nil {
		mm = make(map[string]int)
		m[outer] = mm
	}
	mm[inner]++
}

// Trace returns the snapshot's block records as the versioned decision
// trace document.
func (s TelemetrySnapshot) Trace() Trace {
	return Trace{Version: TraceVersion, Blocks: s.Events}
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
