package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"btrblocks"
	"btrblocks/internal/obs"
)

// Invalidator receives the store-relative name of every file the service
// publishes, replaces, or removes, so a serving layer in front of the
// same directory can drop stale cached state. blockstore.Store satisfies
// it.
type Invalidator interface {
	Invalidate(name string)
}

// ContextInvalidator is an Invalidator that accepts the publishing
// request's context, so a remote invalidator (an HTTP client pushing to
// btrserved) can propagate the trace and request ID across the process
// boundary. The service type-asserts for it and falls back to
// Invalidate when it is not implemented.
type ContextInvalidator interface {
	InvalidateContext(ctx context.Context, name string)
}

// Config tunes a Service.
type Config struct {
	// Dir is the store directory column files are published into — the
	// same directory btrserved serves. Required.
	Dir string
	// WALDir holds the write-ahead log segments (default Dir/.wal; the
	// leading dot keeps it out of btrserved's way only by convention —
	// point it elsewhere to serve Dir over a store that lists dotfiles).
	WALDir string
	// ChunkRows is the buffered-row threshold that triggers a flush
	// (default 64000 — one full block).
	ChunkRows int
	// FlushInterval flushes all non-empty buffers on a timer so trickle
	// tables still publish (default 1s; negative disables the timer).
	FlushInterval time.Duration
	// TargetBlockRows is the block size compaction re-compresses to
	// (default 64000, where the cascade actually wins).
	TargetBlockRows int
	// CompactMinChunks is how many small level-0 chunks must accumulate
	// before the compactor merges them (default 4; negative disables
	// background compaction — CompactNow still works).
	CompactMinChunks int
	// CompactInterval is the background compactor's scan period
	// (default 5s; negative disables the timer — CompactNow still works).
	CompactInterval time.Duration
	// CompactMaxRows caps the rows merged per compaction run (default
	// 4 × TargetBlockRows).
	CompactMaxRows int
	// Options configures compression (parallelism, schemes, telemetry).
	// Ingest always writes checksummed (v2) files.
	Options *btrblocks.Options
	// Invalidator, when non-nil, is notified of every published,
	// replaced, or removed file.
	Invalidator Invalidator
	// Metrics receives counters and histograms (default: a private one,
	// readable via Service.Metrics).
	Metrics *Metrics
	// Logger receives structured logs (default: discard).
	Logger *slog.Logger
	// Spans, when non-nil, records spans for the ingest pipeline: WAL
	// append, group-commit sync, flush, cascade compression, atomic
	// publication, and invalidation all become children of whatever span
	// is in the caller's context (usually the HTTP handler's root span).
	Spans *obs.SpanRecorder
}

func (c *Config) chunkRows() int {
	if c.ChunkRows <= 0 {
		return btrblocks.DefaultBlockSize
	}
	return c.ChunkRows
}

func (c *Config) targetBlockRows() int {
	if c.TargetBlockRows <= 0 {
		return btrblocks.DefaultBlockSize
	}
	return c.TargetBlockRows
}

func (c *Config) compactMinChunks() int {
	if c.CompactMinChunks == 0 {
		return 4
	}
	return c.CompactMinChunks
}

func (c *Config) compactMaxRows() int {
	if c.CompactMaxRows > 0 {
		return c.CompactMaxRows
	}
	return 4 * c.targetBlockRows()
}

func (c *Config) flushInterval() time.Duration {
	if c.FlushInterval == 0 {
		return time.Second
	}
	return c.FlushInterval
}

func (c *Config) compactInterval() time.Duration {
	if c.CompactInterval == 0 {
		return 5 * time.Second
	}
	return c.CompactInterval
}

// chunkInfo is one committed chunk on disk.
type chunkInfo struct {
	Seq    uint64 // max WAL sequence covered
	MinSeq uint64 // min WAL sequence covered (== first record's seq)
	Level  int    // 0 = fresh flush, 1 = compacted
	Rows   int
	Bytes  int64
	Files  []string // column file names within the table dir, schema order
}

func (c *chunkInfo) base() string { return fmt.Sprintf("c-%016x-%d", c.Seq, c.Level) }

// chunkMarker is the commit marker written last during publication: a
// chunk exists iff its marker does. It also records the schema, so
// recovery needs no decoding.
type chunkMarker struct {
	Table   string         `json:"table"`
	Seq     uint64         `json:"seq"`
	MinSeq  uint64         `json:"min_seq"`
	Level   int            `json:"level"`
	Rows    int            `json:"rows"`
	Columns []markerColumn `json:"columns"`
}

type markerColumn struct {
	Name  string `json:"name"`
	Type  string `json:"type"`
	File  string `json:"file"`
	Bytes int64  `json:"bytes"`
}

// tableState is the in-memory state of one table: registered schema,
// the accumulating row buffer, and the committed chunks on disk.
type tableState struct {
	name   string
	schema []btrblocks.Column
	// buf holds where the records appended since the last flush lie in
	// the WAL, in sequence order, and bufRows counts their rows. The WAL
	// already holds the rows, and a flush reads them back; so buffered
	// rows take memory only while their table flushes.
	buf        []walPos
	bufRows    int
	bufMinSeq  uint64 // lowest WAL seq in the buffer (0 when empty)
	bufMaxSeq  uint64 // highest WAL seq in the buffer
	flushedSeq uint64 // highest WAL seq published
	chunks     []chunkInfo
	// failed is set when a flush cannot read a buffered record back: the
	// table then refuses appends and flushes until a restart replays the
	// WAL, rather than retry a read that keeps failing while its buffer
	// grows and the WAL never checkpoints.
	failed error

	// flushMu serializes flushes of this table (ticker vs HTTP vs
	// threshold) without blocking appends to other tables.
	flushMu sync.Mutex
}

// Service is the ingestion engine. Open recovers it from disk; Append
// is safe for concurrent use; Close flushes and shuts down.
type Service struct {
	cfg Config
	dir string
	opt *btrblocks.Options
	met *Metrics
	log *slog.Logger

	mu     sync.Mutex
	tables map[string]*tableState
	wal    *wal
	closed bool
	// publishing counts flushes whose buffer has been taken under mu but
	// whose chunk has not yet committed (or been restored after a publish
	// failure). The WAL checkpoint must not run while any publish is in
	// flight: the in-flight rows are no longer in a buffer, so allEmpty
	// alone would let a concurrent flush of another table prune the very
	// segments that still back them.
	publishing int
	// held keeps a copy of the rows of each buffered append whose fsync
	// failed: such a record's bytes may never reach the disk, so a flush
	// reads the copy instead of the WAL.
	held map[walPos]*btrblocks.Chunk

	flushCh chan flushRequest // threshold-triggered flush requests
	stop    chan struct{}
	wg      sync.WaitGroup
}

// flushRequest carries a threshold-triggered flush to the flusher loop
// together with the appending request's (uncancellable) context, so the
// asynchronous flush — compression, publication, invalidation — shows
// up in the same trace as the append that tripped the threshold.
type flushRequest struct {
	table string
	ctx   context.Context
}

// Open recovers the service from dir: committed chunks are indexed (and
// uncommitted garbage from a crashed publication removed), then the WAL
// is replayed — records already covered by a published chunk are
// skipped, the rest repopulate the row buffers, and a torn tail is
// discarded. A fresh WAL segment is opened for new appends.
func Open(cfg Config) (*Service, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ingest: Config.Dir is required")
	}
	if cfg.WALDir == "" {
		cfg.WALDir = filepath.Join(cfg.Dir, ".wal")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	met := cfg.Metrics
	if met == nil {
		met = NewMetrics()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Service{
		cfg:     cfg,
		dir:     cfg.Dir,
		opt:     cfg.Options,
		met:     met,
		log:     logger,
		tables:  make(map[string]*tableState),
		held:    make(map[walPos]*btrblocks.Chunk),
		flushCh: make(chan flushRequest, 64),
		stop:    make(chan struct{}),
	}
	if err := s.recoverPublished(); err != nil {
		return nil, err
	}
	w, err := openWAL(cfg.WALDir, met, s.applyReplay)
	if err != nil {
		return nil, err
	}
	s.wal = w
	// Re-anchor the sequence counter past every published chunk. A
	// checkpoint prunes the log, so after a restart the WAL alone may
	// know nothing about sequence numbers already spent on published
	// chunks — and a reused number would make the next replay skip a
	// live record as "already published".
	maxSeen := uint64(0)
	for _, ts := range s.tables {
		if ts.flushedSeq > maxSeen {
			maxSeen = ts.flushedSeq
		}
		if ts.bufMaxSeq > maxSeen {
			maxSeen = ts.bufMaxSeq
		}
	}
	w.ensureSeqAfter(maxSeen)

	s.wg.Add(1)
	go s.flusherLoop()
	if cfg.compactMinChunks() > 0 && cfg.compactInterval() > 0 {
		s.wg.Add(1)
		go s.compactorLoop()
	}
	return s, nil
}

// Metrics returns the service's counters.
func (s *Service) Metrics() *Metrics { return s.met }

// Spans returns the service's span recorder (nil when disabled).
func (s *Service) Spans() *obs.SpanRecorder { return s.cfg.Spans }

// Dir returns the store directory the service publishes into.
func (s *Service) Dir() string { return s.dir }

// recoverPublished walks the store directory: committed chunks (those
// with a .commit marker) become tableState entries; tmp files and
// chunk files without a marker — a crash mid-publication — are removed;
// level-0 chunks whose sequence range a compacted chunk covers — a
// crash mid-compaction, after the output committed but before the
// inputs were removed — are removed too.
func (s *Service) recoverPublished() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() || !validName(e.Name()) {
			continue
		}
		if err := s.recoverTable(e.Name()); err != nil {
			return err
		}
	}
	return nil
}

func (s *Service) recoverTable(table string) error {
	tdir := filepath.Join(s.dir, table)
	entries, err := os.ReadDir(tdir)
	if err != nil {
		return err
	}
	committed := map[string]*chunkMarker{} // base -> marker
	var files []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(tdir, name))
			s.met.UncommittedDrop.Add(1)
			continue
		}
		if strings.HasSuffix(name, ".commit") {
			var m chunkMarker
			data, err := os.ReadFile(filepath.Join(tdir, name))
			if err != nil {
				return err
			}
			if err := json.Unmarshal(data, &m); err != nil {
				return fmt.Errorf("ingest: bad commit marker %s/%s: %v", table, name, err)
			}
			committed[strings.TrimSuffix(name, ".commit")] = &m
			continue
		}
		files = append(files, name)
	}
	// Chunk files without a marker never committed; remove them. Other
	// files (someone else's data in the same lake directory) are left
	// alone.
	for _, name := range files {
		if base, ok := chunkFileBase(name); ok {
			if _, ok := committed[base]; !ok {
				os.Remove(filepath.Join(tdir, name))
				s.met.UncommittedDrop.Add(1)
				s.invalidate(context.Background(), table+"/"+name)
			}
		}
	}
	if len(committed) == 0 {
		return nil
	}
	// Supersede: a compacted chunk covers every level-0 chunk whose seq
	// falls in its [MinSeq, Seq] range; survivors of a crash mid-cleanup
	// are duplicates and must go.
	var infos []chunkInfo
	for base, m := range committed {
		info := chunkInfo{Seq: m.Seq, MinSeq: m.MinSeq, Level: m.Level, Rows: m.Rows}
		if info.MinSeq == 0 {
			info.MinSeq = info.Seq
		}
		for _, c := range m.Columns {
			info.Files = append(info.Files, c.File)
			info.Bytes += c.Bytes
		}
		_ = base
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Seq < infos[j].Seq })
	keep := make([]chunkInfo, 0, len(infos))
	for _, info := range infos {
		superseded := false
		if info.Level == 0 {
			for _, other := range infos {
				if other.Level > 0 && other.MinSeq <= info.Seq && info.Seq <= other.Seq {
					superseded = true
					break
				}
			}
		}
		if superseded {
			s.log.Warn("removing superseded chunk left by interrupted compaction",
				"table", table, "chunk", info.base())
			s.met.SupersededChunks.Add(1)
			s.removeChunk(context.Background(), table, &info)
			continue
		}
		keep = append(keep, info)
	}
	if len(keep) == 0 {
		return nil
	}
	newest := committed[keep[len(keep)-1].base()]
	if newest == nil {
		return fmt.Errorf("ingest: %s: marker for %s vanished during recovery", table, keep[len(keep)-1].base())
	}
	schema := make([]btrblocks.Column, len(newest.Columns))
	for i, c := range newest.Columns {
		t, err := parseType(c.Type)
		if err != nil {
			return fmt.Errorf("ingest: %s: %v", table, err)
		}
		schema[i] = btrblocks.Column{Name: c.Name, Type: t}
	}
	ts := &tableState{
		name:       table,
		schema:     schema,
		flushedSeq: keep[len(keep)-1].Seq,
		chunks:     append([]chunkInfo(nil), keep...),
	}
	s.tables[table] = ts
	return nil
}

// chunkFileBase extracts the "c-<seq>-<level>" base of a chunk column
// file name, or reports that the name is not one of ours.
func chunkFileBase(name string) (string, bool) {
	if !strings.HasPrefix(name, "c-") || !strings.HasSuffix(name, ".btr") {
		return "", false
	}
	rest := strings.TrimPrefix(name, "c-")
	dash := strings.IndexByte(rest, '-')
	if dash != 16 {
		return "", false
	}
	dot := strings.IndexByte(rest[dash:], '.')
	if dot < 0 {
		return "", false
	}
	return "c-" + rest[:dash+dot], true
}

// applyReplay consumes one recovered WAL record during Open.
func (s *Service) applyReplay(rec *walRecord) error {
	ts := s.tables[rec.Table]
	if ts == nil {
		if !validName(rec.Table) {
			return fmt.Errorf("ingest: WAL record for invalid table %q", rec.Table)
		}
		ts = &tableState{name: rec.Table, schema: schemaOf(&rec.Chunk)}
		s.tables[rec.Table] = ts
	}
	if rec.Seq <= ts.flushedSeq {
		s.met.WALSkippedRecords.Add(1)
		return nil
	}
	if err := schemaMatches(ts.schema, &rec.Chunk); err != nil {
		return fmt.Errorf("ingest: WAL record %d for table %s: %v", rec.Seq, rec.Table, err)
	}
	if ts.bufRows == 0 {
		ts.bufMinSeq = rec.Seq
	}
	ts.buf = append(ts.buf, rec.pos)
	ts.bufRows += rec.Chunk.NumRows()
	ts.bufMaxSeq = rec.Seq
	s.met.WALReplayed.Add(1)
	s.met.WALReplayedRows.Add(int64(rec.Chunk.NumRows()))
	return nil
}

// CreateTable registers a table with an explicit schema. Creating an
// existing table with the same schema is a no-op; with a different one,
// an error.
func (s *Service) CreateTable(table string, specs []ColumnSpec) error {
	if !validName(table) {
		return fmt.Errorf("%w: table %q", ErrBadName, table)
	}
	if len(specs) == 0 {
		return fmt.Errorf("%w: table needs at least one column", ErrSchema)
	}
	schema := make([]btrblocks.Column, len(specs))
	for i, sp := range specs {
		if !validName(sp.Name) {
			return fmt.Errorf("%w: column %q", ErrBadName, sp.Name)
		}
		t, err := parseType(sp.Type)
		if err != nil {
			return err
		}
		schema[i] = btrblocks.Column{Name: sp.Name, Type: t}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("ingest: service is closed")
	}
	if ts := s.tables[table]; ts != nil {
		probe := emptyChunkFor(schema)
		if err := schemaMatches(ts.schema, &probe); err != nil {
			return err
		}
		return nil
	}
	s.tables[table] = &tableState{name: table, schema: schema}
	return nil
}

// Append ingests one batch for a table: the batch is framed into the
// WAL, fsynced (group commit), and buffered. When Append returns nil
// the rows are durable — a crash at any later moment cannot lose them.
// The returned seq is the batch's WAL sequence number.
//
// The first append to an unknown table registers the batch's schema as
// the table's schema.
func (s *Service) Append(table string, chunk *btrblocks.Chunk) (seq uint64, err error) {
	return s.AppendContext(context.Background(), table, chunk)
}

// AppendContext is Append with a caller context. When the context
// carries a span, the WAL framing and the group-commit fsync wait are
// recorded as children, and a threshold-triggered flush joins the same
// trace.
func (s *Service) AppendContext(ctx context.Context, table string, chunk *btrblocks.Chunk) (seq uint64, err error) {
	start := time.Now()
	defer func() {
		if err != nil {
			s.met.AppendErrors.Add(1)
		} else {
			s.met.Appends.Add(1)
			s.met.AppendedRows.Add(int64(chunk.NumRows()))
			s.met.AppendLatency.Observe(time.Since(start))
		}
	}()
	rows := chunk.NumRows()
	if rows == 0 {
		return 0, ErrEmptyBatch
	}
	if !validName(table) {
		return 0, fmt.Errorf("%w: table %q", ErrBadName, table)
	}
	for i := range chunk.Columns {
		if !validName(chunk.Columns[i].Name) {
			return 0, fmt.Errorf("%w: column %q", ErrBadName, chunk.Columns[i].Name)
		}
		if chunk.Columns[i].Len() != rows {
			return 0, fmt.Errorf("%w: ragged batch (column %q has %d rows, batch has %d)",
				ErrSchema, chunk.Columns[i].Name, chunk.Columns[i].Len(), rows)
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("ingest: service is closed")
	}
	ts := s.tables[table]
	if ts == nil {
		ts = &tableState{name: table, schema: schemaOf(chunk)}
		s.tables[table] = ts
	} else if ts.failed != nil {
		s.mu.Unlock()
		return 0, ts.failed
	} else if err := schemaMatches(ts.schema, chunk); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	// WAL append and buffer insert happen under one lock so the buffer
	// holds records in sequence order — a flushed buffer is always a
	// contiguous range of the table's WAL records, which is what lets
	// replay skip by comparing against the published high-water mark.
	_, wsp := obs.StartChild(ctx, "wal.append")
	wsp.SetAttr("table", table)
	wsp.SetAttrInt("rows", int64(rows))
	seq, pos, gen, werr := s.wal.append(table, chunk)
	wsp.SetError(werr)
	wsp.End()
	if werr != nil {
		s.mu.Unlock()
		return 0, werr
	}
	if ts.bufRows == 0 {
		ts.bufMinSeq = seq
	}
	ts.buf = append(ts.buf, pos)
	ts.bufRows += rows
	ts.bufMaxSeq = seq
	needFlush := ts.bufRows >= s.cfg.chunkRows()
	s.mu.Unlock()

	// wal.sync covers the whole group-commit protocol: the wait to become
	// (or ride on) the sync winner plus the fsync itself.
	syncStart := time.Now()
	_, ssp := obs.StartChild(ctx, "wal.sync")
	serr := s.wal.syncTo(pos.end(), gen)
	ssp.SetError(serr)
	ssp.End()
	if serr != nil {
		// The append is refused, but its record is buffered and may still
		// be published, as any unacknowledged write may; since its bytes
		// may not be on disk, the flush reads a copy of its rows.
		held := emptyChunkFor(chunk.Columns)
		for i := range held.Columns {
			appendColumn(&held.Columns[i], &chunk.Columns[i])
		}
		s.mu.Lock()
		if seq > ts.flushedSeq {
			s.held[pos] = &held
		}
		s.mu.Unlock()
		return 0, serr
	}
	s.met.WALSyncLatency.Observe(time.Since(syncStart))

	if needFlush {
		select {
		// WithoutCancel: the flush outlives the HTTP request whose context
		// this is; it must keep the trace linkage but not the cancellation.
		case s.flushCh <- flushRequest{table: table, ctx: context.WithoutCancel(ctx)}:
		default: // a flush is already queued; the flusher drains the backlog
		}
	}
	return seq, nil
}

// flusherLoop services threshold-triggered flush requests and the
// periodic flush timer.
func (s *Service) flusherLoop() {
	defer s.wg.Done()
	var tick <-chan time.Time
	if iv := s.cfg.flushInterval(); iv > 0 {
		t := time.NewTicker(iv)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case req := <-s.flushCh:
			if err := s.FlushTableContext(req.ctx, req.table); err != nil {
				s.log.Error("flush", "table", req.table, "err", err.Error())
			}
		case <-tick:
			if err := s.FlushAll(); err != nil {
				s.log.Error("periodic flush", "err", err.Error())
			}
		}
	}
}

// FlushAll publishes every non-empty buffer.
func (s *Service) FlushAll() error {
	return s.FlushAllContext(context.Background())
}

// FlushAllContext is FlushAll with a caller context for tracing.
func (s *Service) FlushAllContext(ctx context.Context) error {
	s.mu.Lock()
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	var firstErr error
	for _, name := range names {
		if err := s.FlushTableContext(ctx, name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// FlushTable compresses and publishes the table's buffered rows as one
// chunk (one column file per schema column plus a commit marker). An
// empty buffer is a no-op. On publish failure the rows return to the
// buffer and the next flush retries; when a buffered record cannot be
// read back from the WAL, the table fails instead (see tableState.failed).
func (s *Service) FlushTable(table string) error {
	return s.FlushTableContext(context.Background(), table)
}

// FlushTableContext is FlushTable with a caller context. When the
// context carries a span, the flush and everything under it — cascade
// compression, atomic publication, invalidation — are recorded as
// children.
func (s *Service) FlushTableContext(ctx context.Context, table string) (err error) {
	s.mu.Lock()
	ts := s.tables[table]
	s.mu.Unlock()
	if ts == nil {
		return fmt.Errorf("ingest: unknown table %q", table)
	}
	ctx, fsp := obs.StartChild(ctx, "ingest.flush")
	fsp.SetAttr("table", table)
	defer func() {
		fsp.SetError(err)
		fsp.End()
	}()
	ts.flushMu.Lock()
	defer ts.flushMu.Unlock()

	s.mu.Lock()
	if ts.failed != nil {
		s.mu.Unlock()
		return ts.failed
	}
	rows := ts.bufRows
	if rows == 0 {
		s.mu.Unlock()
		return nil
	}
	batches := ts.buf
	minSeq, maxSeq := ts.bufMinSeq, ts.bufMaxSeq
	ts.buf, ts.bufRows = nil, 0
	ts.bufMinSeq, ts.bufMaxSeq = 0, 0
	s.publishing++
	s.mu.Unlock()

	fsp.SetAttrInt("rows", int64(rows))
	start := time.Now()
	chunks, rerr := s.readBatches(batches)
	var info *chunkInfo
	if rerr != nil {
		err = fmt.Errorf("ingest: table %s takes no appends until a restart replays the WAL: %w", table, rerr)
	} else {
		chunk := concatChunk(chunks, rows)
		info, err = s.publishChunk(ctx, table, &chunk, chunkInfo{Seq: maxSeq, MinSeq: minSeq, Level: 0, Rows: rows})
	}
	if err != nil {
		// Put the rows back in front of whatever arrived meanwhile so the
		// buffer stays in sequence order.
		s.met.PublishErrors.Add(1)
		s.mu.Lock()
		ts.buf = append(batches, ts.buf...)
		ts.bufRows += rows
		ts.bufMinSeq = minSeq
		if ts.bufMaxSeq == 0 {
			ts.bufMaxSeq = maxSeq
		}
		if rerr != nil {
			ts.failed = err
		}
		s.publishing--
		s.mu.Unlock()
		if rerr != nil {
			s.log.Error("table failed", "table", table, "err", err.Error())
		}
		return err
	}
	s.mu.Lock()
	ts.flushedSeq = maxSeq
	ts.chunks = append(ts.chunks, *info)
	for _, pos := range batches {
		delete(s.held, pos)
	}
	s.publishing--
	allEmpty := true
	for _, other := range s.tables {
		if other.bufRows > 0 {
			allEmpty = false
			break
		}
	}
	// Checkpoint: once every acknowledged row is published, the old WAL
	// segments carry nothing new — rotate and prune them so the log does
	// not grow without bound. The checkpoint must happen under s.mu:
	// appends write their WAL record under the same lock, so no record
	// can land in a segment between the allEmpty check and the prune.
	// Another table's publish may have taken its buffer (emptying it)
	// without committing yet — its rows exist only in the WAL, so also
	// require that no other publish is in flight.
	if allEmpty && s.publishing == 0 && s.wal.size() > int64(walHeaderLen) {
		if err := s.wal.checkpoint(); err != nil {
			s.log.Warn("wal checkpoint", "err", err.Error())
		}
	}
	s.mu.Unlock()

	s.met.Flushes.Add(1)
	s.met.FlushedRows.Add(int64(rows))
	s.met.FlushLatency.Observe(time.Since(start))
	s.log.Info("published chunk", "table", table, "chunk", info.base(),
		"rows", rows, "bytes", info.Bytes, "seq", maxSeq)
	return nil
}

// readBatches returns the rows of the records at batches: the copy held
// for a record whose fsync failed, else the record read back from the
// WAL.
func (s *Service) readBatches(batches []walPos) ([]*btrblocks.Chunk, error) {
	chunks := make([]*btrblocks.Chunk, len(batches))
	s.mu.Lock()
	for i, pos := range batches {
		chunks[i] = s.held[pos]
	}
	s.mu.Unlock()
	for i, pos := range batches {
		if chunks[i] == nil {
			rec, err := s.wal.read(pos)
			if err != nil {
				return nil, err
			}
			chunks[i] = &rec.Chunk
		}
	}
	return chunks, nil
}

// publishChunk compresses every column and publishes the chunk
// atomically: every column file is written to a temp name, fsynced and
// renamed; the commit marker goes last. A crash anywhere in between
// leaves either an invisible chunk (no marker — startup removes the
// fragments and the WAL re-publishes) or a complete one. A failure
// removes what it wrote as removeChunk does, marker first: a marker
// written before the failure (its directory fsync failed) names a chunk
// the caller does not count as published.
func (s *Service) publishChunk(ctx context.Context, table string, chunk *btrblocks.Chunk, proto chunkInfo) (_ *chunkInfo, err error) {
	tdir := filepath.Join(s.dir, table)
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return nil, err
	}
	info := proto
	base := info.base()
	marker := chunkMarker{
		Table:  table,
		Seq:    info.Seq,
		MinSeq: info.MinSeq,
		Level:  info.Level,
		Rows:   info.Rows,
	}
	defer func() {
		if err != nil {
			s.removeChunk(ctx, table, &info)
		}
	}()
	for i := range chunk.Columns {
		col := &chunk.Columns[i]
		cctx, csp := obs.StartChild(ctx, "compress.cascade")
		csp.SetAttr("column", col.Name)
		csp.SetAttrInt("rows", int64(col.Len()))
		data, err := btrblocks.CompressColumnContext(cctx, *col, s.compressOptions(info.Level))
		csp.SetError(err)
		if err == nil {
			csp.SetAttrInt("bytes", int64(len(data)))
		}
		csp.End()
		if err != nil {
			return nil, fmt.Errorf("compress %s/%s: %w", table, col.Name, err)
		}
		name := fmt.Sprintf("%s.%s.btr", base, col.Name)
		_, psp := obs.StartChild(ctx, "publish.atomic")
		psp.SetAttr("file", table+"/"+name)
		psp.SetAttrInt("bytes", int64(len(data)))
		werr := writeFileAtomic(filepath.Join(tdir, name), data)
		psp.SetError(werr)
		psp.End()
		if werr != nil {
			return nil, werr
		}
		info.Files = append(info.Files, name)
		info.Bytes += int64(len(data))
		marker.Columns = append(marker.Columns, markerColumn{
			Name: col.Name, Type: typeName(col.Type), File: name, Bytes: int64(len(data)),
		})
		s.met.PublishedFiles.Add(1)
		s.met.PublishedBytes.Add(int64(len(data)))
		s.invalidate(ctx, table+"/"+name)
	}
	mdata, err := json.MarshalIndent(&marker, "", "  ")
	if err != nil {
		return nil, err
	}
	_, msp := obs.StartChild(ctx, "publish.atomic")
	msp.SetAttr("file", table+"/"+base+".commit")
	msp.SetAttrInt("bytes", int64(len(mdata)))
	err = writeMarker(filepath.Join(tdir, base+".commit"), mdata)
	msp.SetError(err)
	msp.End()
	if err != nil {
		return nil, err
	}
	s.invalidate(ctx, table+"/"+base+".commit")
	return &info, nil
}

// compressOptions clones the configured options with the block size the
// chunk level calls for: level-0 chunks keep the default (a small flush
// is one small block), compacted chunks use the full target block size.
func (s *Service) compressOptions(level int) *btrblocks.Options {
	var opt btrblocks.Options
	if s.opt != nil {
		opt = *s.opt
	}
	if level > 0 || opt.BlockSize <= 0 {
		opt.BlockSize = s.cfg.targetBlockRows()
	}
	return &opt
}

// removeChunk deletes a chunk from disk, marker first: the moment the
// marker is gone the chunk no longer exists as far as recovery is
// concerned, so leftover column files are mere garbage, not data. A
// marker that cannot be removed keeps its files, so the chunk stays
// whole.
func (s *Service) removeChunk(ctx context.Context, table string, info *chunkInfo) {
	tdir := filepath.Join(s.dir, table)
	if err := os.Remove(filepath.Join(tdir, info.base()+".commit")); err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.log.Warn("remove chunk", "table", table, "chunk", info.base(), "err", err.Error())
		return
	}
	s.invalidate(ctx, table+"/"+info.base()+".commit")
	for _, f := range info.Files {
		os.Remove(filepath.Join(tdir, f))
		s.invalidate(ctx, table+"/"+f)
	}
	syncDir(tdir)
}

func (s *Service) invalidate(ctx context.Context, name string) {
	if s.cfg.Invalidator == nil {
		return
	}
	ictx, sp := obs.StartChild(ctx, "invalidate")
	sp.SetAttr("file", name)
	if ci, ok := s.cfg.Invalidator.(ContextInvalidator); ok {
		ci.InvalidateContext(ictx, name)
	} else {
		s.cfg.Invalidator.Invalidate(name)
	}
	sp.End()
	s.met.Invalidations.Add(1)
}

// writeMarker writes a chunk's commit marker; a test swaps it to fail.
var writeMarker = writeFileAtomic

// writeFileAtomic writes data to path via a temp file in the same
// directory: write, fsync, rename, fsync dir. Readers never observe a
// partial file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// TableStats is the externally visible state of one table.
type TableStats struct {
	Table          string       `json:"table"`
	Columns        []ColumnSpec `json:"columns"`
	BufferedRows   int          `json:"buffered_rows"`
	FlushedSeq     uint64       `json:"flushed_seq"`
	Chunks         int          `json:"chunks"`
	CompactedChunk int          `json:"compacted_chunks"`
	PublishedRows  int          `json:"published_rows"`
	PublishedBytes int64        `json:"published_bytes"`
}

// Stats returns per-table state sorted by table name.
func (s *Service) Stats() []TableStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TableStats, 0, len(s.tables))
	for _, ts := range s.tables {
		st := TableStats{
			Table:        ts.name,
			BufferedRows: ts.bufRows,
			FlushedSeq:   ts.flushedSeq,
			Chunks:       len(ts.chunks),
		}
		for i := range ts.schema {
			st.Columns = append(st.Columns, ColumnSpec{
				Name: ts.schema[i].Name, Type: typeName(ts.schema[i].Type),
			})
		}
		for i := range ts.chunks {
			st.PublishedRows += ts.chunks[i].Rows
			st.PublishedBytes += ts.chunks[i].Bytes
			if ts.chunks[i].Level > 0 {
				st.CompactedChunk++
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// Close flushes every buffer, stops the background loops, and closes
// the WAL. Idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	err := s.FlushAll()
	if cerr := s.wal.close(); err == nil {
		err = cerr
	}
	return err
}

// crash abandons the service without flushing buffers or syncing the
// WAL — the in-process stand-in for kill -9, used by the chaos tests.
// Acknowledged appends are already durable; everything else is lost,
// exactly as a real crash would lose it.
func (s *Service) crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	s.wal.crash()
}

// walkStore lists the store-relative paths of every committed column
// file, for tests and the verify walkthrough.
func (s *Service) walkStore() ([]string, error) {
	var out []string
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == filepath.Base(s.cfg.WALDir) && filepath.Dir(path) == s.dir {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && strings.HasSuffix(path, ".btr") {
			rel, err := filepath.Rel(s.dir, path)
			if err != nil {
				return err
			}
			out = append(out, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// errUnknownTable helps the HTTP layer map missing tables to 404.
func isUnknownTable(err error) bool {
	return err != nil && strings.Contains(err.Error(), "unknown table")
}

var _ = errors.Is // keep errors imported for the sentinel helpers
