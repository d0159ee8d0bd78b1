// Package blockstore is the serving layer of the repository: it hosts a
// set of BtrBlocks files and hands them out over HTTP at three
// granularities — raw byte ranges (the S3-style path), decompressed
// blocks (JSON or binary), and pushed-down equality predicates answered
// from the compressed representation. It is the measured counterpart of
// internal/s3sim: where s3sim models a network in front of the decoder,
// blockstore puts a real HTTP server there and serves real bytes.
//
// The pieces: Store loads and indexes the files and decodes blocks
// through a sharded, byte-bounded LRU Cache with singleflight dedup, so
// concurrent requests for one block decode it exactly once; a worker-pool
// prefetcher decodes ahead of sequential scans; Metrics counts cache and
// request behavior and renders Prometheus text; Server is the HTTP
// surface and Client its Go consumer.
package blockstore

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"btrblocks"
	"btrblocks/internal/obs"
	"btrblocks/metadata"
)

// Config tunes a Store.
type Config struct {
	// CacheBytes bounds the decompressed-block cache (default 256 MiB).
	// Negative disables caching entirely.
	CacheBytes int64
	// CacheShards is the cache shard count (default DefaultCacheShards).
	CacheShards int
	// PrefetchBlocks is how many blocks past a requested one the store
	// decodes ahead for sequential scans (0 disables prefetch).
	PrefetchBlocks int
	// PrefetchWorkers is the readahead worker-pool size (default 2 when
	// prefetching is enabled).
	PrefetchWorkers int
	// QuarantineThreshold is how many corrupt decode failures a block
	// accumulates before the store quarantines it and stops retrying
	// (default 3; negative disables quarantining). Only corruption
	// (errors.Is ErrCorrupt — checksum mismatches, truncation, decoder
	// rejections) counts; not-found and bad-request errors do not.
	QuarantineThreshold int
	// QuarantineTTL, when positive, lets a quarantined block be re-probed
	// after the TTL elapses — self-healing for transient media errors.
	// Zero means quarantine is permanent for the store's lifetime.
	QuarantineTTL time.Duration
	// Options configures decompression and predicate evaluation. When
	// Options.Telemetry is set, every block decode is counted on it.
	Options *btrblocks.Options
}

func (c Config) cacheBytes() int64 {
	if c.CacheBytes < 0 {
		return 0
	}
	if c.CacheBytes == 0 {
		return 256 << 20
	}
	return c.CacheBytes
}

func (c Config) prefetchWorkers() int {
	if c.PrefetchWorkers > 0 {
		return c.PrefetchWorkers
	}
	return 2
}

func (c Config) quarantineThreshold() int {
	if c.QuarantineThreshold < 0 {
		return 0 // disabled
	}
	if c.QuarantineThreshold == 0 {
		return 3
	}
	return c.QuarantineThreshold
}

// File is one hosted file.
type File struct {
	// Name is the store-relative, slash-separated path.
	Name string
	// Data is the raw compressed file.
	Data []byte
	// Kind is the detected container format ("column", "chunk",
	// "stream"), "meta" for a BTRM metadata sidecar, or "raw" when the
	// file is not a BtrBlocks container.
	Kind string
	// Rows is the total row count (0 for raw files).
	Rows int
	// Index is the block directory; non-nil only for column files, which
	// are the kind served at block and predicate granularity.
	Index *btrblocks.ColumnIndex
	// Meta is the parsed per-block zone map when the file is a BTRM
	// metadata sidecar (<column>.btrm); the query path uses the sidecar
	// of a column file for block pruning.
	Meta *metadata.ColumnMeta
}

// Blocks returns the number of addressable blocks (0 unless a column).
func (f *File) Blocks() int {
	if f.Index == nil {
		return 0
	}
	return len(f.Index.Blocks)
}

// Block is one decompressed column block as held by the cache.
type Block struct {
	File     string
	Index    int
	StartRow int
	// Col holds the decoded values; its NULL mask is rebased to the
	// block (position 0 = StartRow).
	Col btrblocks.Column
	// Bytes is the decompressed in-memory size, the unit of cache
	// accounting.
	Bytes int
}

// Rows returns the block's row count.
func (b *Block) Rows() int { return b.Col.Len() }

type prefetchTask struct {
	name  string
	block int
}

// Store hosts a set of files and serves decompressed blocks through the
// cache. Safe for concurrent use. Close stops the prefetch workers.
type Store struct {
	cfg     Config
	cache   *Cache
	metrics *Metrics

	// fmu guards the file set, which is mutable: Invalidate reloads or
	// removes entries while requests are being served. dir is set only by
	// Open — a store built from in-memory contents has no backing
	// directory to reload from.
	fmu    sync.RWMutex
	dir    string
	files  map[string]*File
	names  []string
	loaded time.Time

	prefetchCh chan prefetchTask
	quit       chan struct{}
	wg         sync.WaitGroup
	closed     atomic.Bool

	// Quarantine state: blocks whose decode keeps failing with corruption
	// are fenced off so scans degrade gracefully instead of re-decoding
	// (and re-failing on) the same damaged bytes forever.
	quarMu      sync.Mutex
	failures    map[string]int       // cache key -> consecutive corrupt failures
	quarantined map[string]time.Time // cache key -> when quarantined
}

// NewStore builds a store from in-memory file contents, keyed by
// store-relative name. Every file is classified by its magic bytes;
// column files additionally get a block index. Unparseable files are
// kept and served raw — a data lake directory can hold anything.
func NewStore(contents map[string][]byte, cfg Config) (*Store, error) {
	s := &Store{
		cfg:         cfg,
		files:       make(map[string]*File, len(contents)),
		metrics:     NewMetrics(),
		loaded:      time.Now(),
		failures:    make(map[string]int),
		quarantined: make(map[string]time.Time),
	}
	s.cache = NewCache(cfg.cacheBytes(), cfg.CacheShards, s.metrics)
	for name, data := range contents {
		s.files[name] = classifyFile(name, data)
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)

	if cfg.PrefetchBlocks > 0 {
		s.prefetchCh = make(chan prefetchTask, 256)
		s.quit = make(chan struct{})
		for w := 0; w < cfg.prefetchWorkers(); w++ {
			s.wg.Add(1)
			go s.prefetchWorker()
		}
	}
	return s, nil
}

// Open loads every regular file under dir into a store. Names are
// slash-separated paths relative to dir.
func Open(dir string, cfg Config) (*Store, error) {
	contents := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		contents[filepath.ToSlash(rel)] = data
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(contents) == 0 {
		return nil, fmt.Errorf("blockstore: no files under %s", dir)
	}
	s, err := NewStore(contents, cfg)
	if err != nil {
		return nil, err
	}
	s.dir = dir
	return s, nil
}

// classifyFile builds a File entry: the format is detected from magic
// bytes, and column files get a parsed block index. Unparseable files
// are kept and served raw — a data lake directory can hold anything.
func classifyFile(name string, data []byte) *File {
	f := &File{Name: name, Data: data, Kind: "raw"}
	if m, used, err := metadata.FromBytes(data); err == nil && used == len(data) {
		f.Kind = "meta"
		f.Meta = &m
		return f
	}
	if info, err := btrblocks.Inspect(data); err == nil {
		f.Kind = info.Kind.String()
		f.Rows = info.Rows()
	}
	if ix, err := btrblocks.ParseColumnIndex(data); err == nil {
		f.Index = ix
		f.Rows = ix.Rows
	}
	return f
}

// Invalidate drops every cached block and quarantine record of the
// named file and — when the store was opened from a directory — reloads
// the file's bytes from disk, so a column file atomically replaced (or
// newly published, or removed) by a writer like btringest is served
// fresh. A decode racing the swap can not leak stale bytes into the
// cache: loads whose file entry changed mid-flight are discarded and
// retried against the new entry. Unknown names are a no-op (drop-only),
// so writers can invalidate eagerly.
func (s *Store) Invalidate(name string) {
	// Read and classify outside fmu — a large column file would
	// otherwise stall every concurrent reader for the whole disk read.
	// The lock is only taken for the O(1)-ish entry swap below.
	var replacement *File
	removed := false
	if s.dir != "" {
		path := filepath.Join(s.dir, filepath.FromSlash(name))
		data, err := os.ReadFile(path)
		switch {
		case err == nil:
			replacement = classifyFile(name, data)
		case os.IsNotExist(err):
			removed = true
		default:
			// Transient read failure: keep serving the old bytes rather than
			// dropping the file; the cache purge below still happens.
		}
	}
	s.fmu.Lock()
	switch {
	case replacement != nil:
		if _, known := s.files[name]; !known {
			s.names = append(s.names, name)
			sort.Strings(s.names)
		}
		s.files[name] = replacement
	case removed:
		if _, known := s.files[name]; known {
			delete(s.files, name)
			i := sort.SearchStrings(s.names, name)
			if i < len(s.names) && s.names[i] == name {
				s.names = append(s.names[:i], s.names[i+1:]...)
			}
		}
	}
	s.loaded = time.Now()
	s.fmu.Unlock()

	s.cache.InvalidateFile(name)
	s.clearQuarantine(name)
	s.metrics.Invalidations.Add(1)
}

// AcceptRepair replaces (or adds) the named file with a pushed copy —
// the receiving half of cross-replica repair. The payload is verified
// before anything changes: it must be a BtrBlocks container whose
// checksums and payloads all check out, so a damaged or malicious push
// can never displace a good copy. Accepted bytes are persisted
// atomically (temp + rename) when the store has a backing directory,
// the entry is swapped in under the file lock, and every cached block
// and quarantine record of the old copy is dropped.
func (s *Store) AcceptRepair(name string, data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("%w: empty repair payload", btrblocks.ErrCorrupt)
	}
	if _, ok := btrblocks.SniffKind(data); !ok {
		return fmt.Errorf("%w: repair payload is not a btrblocks container", btrblocks.ErrCorrupt)
	}
	rep := btrblocks.Verify(data, &btrblocks.VerifyOptions{Deep: true})
	if !rep.OK {
		s.metrics.RepairsRejected.Add(1)
		return fmt.Errorf("%w: repair payload failed verification: %s", btrblocks.ErrCorrupt, verifySummary(rep))
	}
	if s.dir != "" {
		path := filepath.Join(s.dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		tmp, err := os.CreateTemp(filepath.Dir(path), ".repair-*")
		if err != nil {
			return err
		}
		if _, err := tmp.Write(data); err == nil {
			err = tmp.Sync()
		} else {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return err
		}
		if err := os.Rename(tmp.Name(), path); err != nil {
			os.Remove(tmp.Name())
			return err
		}
	}
	replacement := classifyFile(name, append([]byte(nil), data...))
	s.fmu.Lock()
	if _, known := s.files[name]; !known {
		s.names = append(s.names, name)
		sort.Strings(s.names)
	}
	s.files[name] = replacement
	s.loaded = time.Now()
	s.fmu.Unlock()

	s.cache.InvalidateFile(name)
	s.clearQuarantine(name)
	s.metrics.RepairsAccepted.Add(1)
	return nil
}

// clearQuarantine drops the failure and quarantine records of every
// block of the named file (shared by Invalidate and AcceptRepair).
func (s *Store) clearQuarantine(name string) {
	prefix := name + "\x00"
	s.quarMu.Lock()
	for key := range s.failures {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			delete(s.failures, key)
		}
	}
	for key := range s.quarantined {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			delete(s.quarantined, key)
			s.metrics.QuarantinedBlocks.Add(-1)
		}
	}
	s.quarMu.Unlock()
}

// verifySummary renders the first problem a failed VerifyReport found.
func verifySummary(rep *btrblocks.VerifyReport) string {
	if len(rep.Errors) > 0 {
		return rep.Errors[0]
	}
	for _, col := range rep.Columns {
		if col.Error != "" {
			return col.Error
		}
		for _, b := range col.Blocks {
			if !b.OK {
				return fmt.Sprintf("block %d: %s", b.Block, b.Error)
			}
		}
	}
	return "verification failed"
}

// Close stops the prefetch workers. The store must not be used after
// concurrent requests have drained; Block calls during Close are safe
// (their readahead is simply dropped).
func (s *Store) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	if s.quit != nil {
		close(s.quit)
		s.wg.Wait()
	}
}

// Files returns the hosted files sorted by name.
func (s *Store) Files() []*File {
	s.fmu.RLock()
	defer s.fmu.RUnlock()
	out := make([]*File, len(s.names))
	for i, name := range s.names {
		out[i] = s.files[name]
	}
	return out
}

// File returns one file, or nil if absent.
func (s *Store) File(name string) *File {
	s.fmu.RLock()
	defer s.fmu.RUnlock()
	return s.files[name]
}

// column returns a column file, or why there is none by that name.
func (s *Store) column(name string) (*File, error) {
	f := s.File(name)
	switch {
	case f == nil:
		return nil, errNotFound
	case f.Index == nil:
		return nil, fmt.Errorf("blockstore: %s is a %s file, not a column", name, f.Kind)
	}
	return f, nil
}

// Metrics returns the store's counters (shared with its servers).
func (s *Store) Metrics() *Metrics { return s.metrics }

// Cache returns the block cache (exposed for tests and telemetry).
func (s *Store) Cache() *Cache { return s.cache }

// ModTime returns the time the file set last changed (load or
// invalidation), used for HTTP caching headers.
func (s *Store) ModTime() time.Time {
	s.fmu.RLock()
	defer s.fmu.RUnlock()
	return s.loaded
}

// Options returns the store's decompression options.
func (s *Store) Options() *btrblocks.Options { return s.cfg.Options }

// Block returns block idx of the named column file, decoding it through
// the cache, and schedules readahead of the following blocks.
func (s *Store) Block(name string, idx int) (*Block, error) {
	return s.BlockContext(context.Background(), name, idx)
}

// BlockContext is Block with a caller context: when the context carries
// a tracing span, the cache lookup (tagged hit/miss) and any resulting
// block decode record child spans.
func (s *Store) BlockContext(ctx context.Context, name string, idx int) (*Block, error) {
	blk, err := s.cachedBlock(ctx, name, idx)
	if err != nil {
		return nil, err
	}
	s.schedulePrefetch(name, idx)
	return blk, nil
}

// ErrNotFound is reported (via error string) for absent files; the HTTP
// layer maps it to 404.
var errNotFound = fmt.Errorf("blockstore: file not found")

// IsNotFound reports whether err means the file does not exist.
func IsNotFound(err error) bool { return err == errNotFound }

// errQuarantined marks a block the store has fenced off after repeated
// corrupt decodes; the HTTP layer maps it to 410 Gone.
var errQuarantined = errors.New("blockstore: block quarantined after repeated corruption")

// IsQuarantined reports whether err means the block is quarantined.
func IsQuarantined(err error) bool { return errors.Is(err, errQuarantined) }

// IsCorrupt reports whether err means the block's bytes are damaged
// (checksum mismatch, truncation, or decoder rejection); the HTTP layer
// maps it to 422 Unprocessable Entity.
func IsCorrupt(err error) bool { return errors.Is(err, btrblocks.ErrCorrupt) }

// errStaleLoad marks a decode whose file entry was replaced by an
// Invalidate while the decode ran: the result must not be served or
// cached. Internal — callers retry against the new entry.
var errStaleLoad = errors.New("blockstore: file replaced during decode")

func (s *Store) cachedBlock(ctx context.Context, name string, idx int) (*Block, error) {
	for {
		blk, err := s.cachedBlockOnce(ctx, name, idx)
		if errors.Is(err, errStaleLoad) {
			continue
		}
		return blk, err
	}
}

func (s *Store) cachedBlockOnce(ctx context.Context, name string, idx int) (*Block, error) {
	f, err := s.column(name)
	if err != nil {
		return nil, err
	}
	if idx < 0 || idx >= len(f.Index.Blocks) {
		return nil, fmt.Errorf("blockstore: %s block %d out of range [0,%d)", name, idx, len(f.Index.Blocks))
	}
	key := name + "\x00" + strconv.Itoa(idx)
	if err := s.checkQuarantine(key, name, idx); err != nil {
		return nil, err
	}
	_, lookup := obs.StartChild(ctx, "cache.lookup")
	lookup.SetAttr("file", name)
	lookup.SetAttrInt("block", int64(idx))
	loaded := false
	// The outcome is recorded inside the load closure so that waiters
	// sharing one singleflight decode don't each count the same failure:
	// quarantineThreshold counts actual corrupt decodes, not callers.
	blk, err := s.cache.GetOrLoad(key, func() (*Block, error) {
		loaded = true
		_, dec := obs.StartChild(ctx, "block.decode")
		dec.SetAttr("file", name)
		dec.SetAttrInt("block", int64(idx))
		b, err := s.decodeBlock(f, idx)
		dec.SetError(err)
		dec.End()
		s.recordOutcome(key, err)
		if err == nil && s.File(name) != f {
			// Invalidate swapped the file entry mid-decode; errors are never
			// cached, so the stale block cannot become resident.
			return nil, errStaleLoad
		}
		return b, err
	})
	if lookup != nil {
		if loaded {
			lookup.SetAttr("result", "miss")
		} else {
			lookup.SetAttr("result", "hit")
		}
		lookup.End()
	}
	return blk, err
}

// checkQuarantine fails fast for quarantined blocks. An expired
// QuarantineTTL lifts the fence so the block gets one fresh probe —
// self-healing when the damage was transient (e.g. the file was
// re-uploaded and the store reloaded it).
func (s *Store) checkQuarantine(key, name string, idx int) error {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	since, ok := s.quarantined[key]
	if !ok {
		return nil
	}
	if ttl := s.cfg.QuarantineTTL; ttl > 0 && time.Since(since) > ttl {
		delete(s.quarantined, key)
		s.failures[key] = 0
		s.metrics.QuarantinedBlocks.Add(-1)
		return nil
	}
	return fmt.Errorf("%w: %s block %d", errQuarantined, name, idx)
}

// recordOutcome updates the failure ledger after a decode attempt:
// corruption counts toward quarantine, success clears the slate, and
// other errors (cancellations, not-found) are ignored.
func (s *Store) recordOutcome(key string, err error) {
	threshold := s.cfg.quarantineThreshold()
	switch {
	case err == nil:
		s.quarMu.Lock()
		delete(s.failures, key)
		s.quarMu.Unlock()
	case IsCorrupt(err):
		s.metrics.CorruptBlocks.Add(1)
		if threshold == 0 {
			return
		}
		s.quarMu.Lock()
		s.failures[key]++
		if s.failures[key] >= threshold {
			if _, already := s.quarantined[key]; !already {
				s.quarantined[key] = time.Now()
				s.metrics.QuarantinedBlocks.Add(1)
			}
		}
		s.quarMu.Unlock()
	}
}

// Quarantined returns the quarantined block keys ("name\x00idx"), for
// telemetry and tests.
func (s *Store) Quarantined() []string {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	out := make([]string, 0, len(s.quarantined))
	for k := range s.quarantined {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (s *Store) decodeBlock(f *File, idx int) (*Block, error) {
	col, err := f.Index.DecompressBlock(f.Data, idx, s.cfg.Options)
	if err != nil {
		return nil, err
	}
	blk := &Block{
		File:     f.Name,
		Index:    idx,
		StartRow: f.Index.Blocks[idx].StartRow,
		Col:      col,
		// NULL positions ride along in the cache but are small; the value
		// payload dominates.
		Bytes: col.UncompressedBytes(),
	}
	s.metrics.DecodedBlocks.Add(1)
	s.metrics.DecodedBytes.Add(int64(blk.Bytes))
	return blk, nil
}

// schedulePrefetch enqueues readahead of the blocks following idx.
// Non-blocking: a full queue drops tasks rather than stalling the
// request that triggered them.
func (s *Store) schedulePrefetch(name string, idx int) {
	if s.prefetchCh == nil || s.closed.Load() {
		return
	}
	f := s.File(name)
	if f == nil || f.Index == nil {
		return
	}
	last := idx + s.cfg.PrefetchBlocks
	if max := len(f.Index.Blocks) - 1; last > max {
		last = max
	}
	for b := idx + 1; b <= last; b++ {
		select {
		case s.prefetchCh <- prefetchTask{name: name, block: b}:
			s.metrics.PrefetchScheduled.Add(1)
		default:
			s.metrics.PrefetchDropped.Add(1)
		}
	}
}

func (s *Store) prefetchWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case t := <-s.prefetchCh:
			// Readahead decodes through the same cache (and therefore
			// dedups against foreground requests) but does not itself
			// schedule further readahead — no cascades.
			_, _ = s.cachedBlock(context.Background(), t.name, t.block)
		}
	}
}

// Trace re-derives the cascade decision trace for one block (or every
// block when idx < 0) of a column file. The block is decoded through the
// cache, then re-compressed with a fresh telemetry recorder attached
// (never the store's own); because sampling is seeded per block and NULL
// densification is idempotent, the re-compression reproduces the choice
// the stored block embodies, now with the full candidate slate the
// picker scored. CPU-heavier than a plain block fetch — this is a
// debugging endpoint, not a scan path. Cancelling ctx stops the walk
// between blocks and the re-compression's encode tasks.
func (s *Store) Trace(ctx context.Context, name string, idx int) (*btrblocks.DecisionTrace, error) {
	f, err := s.column(name)
	if err != nil {
		return nil, err
	}
	first, last := idx, idx
	if idx < 0 {
		first, last = 0, len(f.Index.Blocks)-1
	}
	var opt btrblocks.Options
	if s.cfg.Options != nil {
		opt = *s.cfg.Options
	}
	opt.Telemetry = btrblocks.NewTelemetry()
	out := &btrblocks.DecisionTrace{Version: btrblocks.TraceVersion}
	for b := first; b <= last; b++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		blk, err := s.cachedBlock(ctx, name, b)
		if err != nil {
			return nil, err
		}
		opt.Telemetry.Reset()
		opt.BlockSize = blk.Rows()
		if _, err := btrblocks.CompressColumnContext(ctx, blk.Col, &opt); err != nil {
			return nil, err
		}
		tr := opt.Telemetry.Snapshot().Trace()
		for i := range tr.Blocks {
			// The re-compression sees a one-block column; restore the
			// block's real index within the file.
			tr.Blocks[i].Block = b
			out.Blocks = append(out.Blocks, tr.Blocks[i])
		}
	}
	return out, nil
}
