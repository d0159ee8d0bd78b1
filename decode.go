package btrblocks

import (
	"context"
	"math"
	"sync"
	"time"

	"btrblocks/coldata"
	"btrblocks/internal/core"
	"btrblocks/internal/obs"
	"btrblocks/internal/parallel"
	"btrblocks/internal/roaring"
)

// This file is the read path. Every decode entry point — DecompressColumn,
// DecompressStringViews, DecompressChunk, ColumnIndex.DecompressBlock and,
// through them, stream.Reader, the block server's cache misses and ingest
// compaction — is decodeColumns over one or more columnDecodes, and
// decodeColumns writes each decoded value once: the destination vectors
// are sized from the block index before any block is decoded, every block
// decodes into its own range of them, and nothing is moved afterwards.
// DESIGN.md ("The decode path") has the ownership rules.

// DecompressColumn decodes a column file produced by CompressColumn.
// String columns are materialized into an owned Strings vector; use
// DecompressStringViews for the no-copy path.
func DecompressColumn(data []byte, opt *Options) (Column, error) {
	return DecompressColumnContext(context.Background(), data, opt)
}

// DecompressColumnContext is DecompressColumn with a caller context: the
// per-block decode tasks observe cancellation and, when the context
// carries a tracing span, record per-block child spans tagged with
// worker id and queue wait. With no span in the context the decode path
// is byte- and allocation-identical to DecompressColumn.
func DecompressColumnContext(ctx context.Context, data []byte, opt *Options) (Column, error) {
	d, err := decompressColumn(ctx, data, opt, false)
	if err != nil {
		return Column{}, err
	}
	return d.col, nil
}

// DecompressStringViews decodes a string column file into per-block
// no-copy view columns (one StringViews per block, pools shared with the
// block dictionaries).
func DecompressStringViews(data []byte, opt *Options) ([]coldata.StringViews, *NullMask, error) {
	d, err := decompressColumn(context.Background(), data, opt, true)
	if err != nil {
		return nil, nil, err
	}
	if d.col.Type != TypeString {
		return nil, nil, ErrTypeMismatch
	}
	return d.views, d.col.Nulls, nil
}

func decompressColumn(ctx context.Context, data []byte, opt *Options, views bool) (*columnDecode, error) {
	ix, err := ParseColumnIndex(data)
	if err != nil {
		return nil, err
	}
	d := newColumnDecode(ix, data, 0, len(ix.Blocks), views)
	return d, decodeColumns(ctx, []*columnDecode{d}, opt, pathDecompressColumn, true)
}

// DecompressChunk decodes a compressed chunk, fanning out across every
// (column, block) pair — the same task granularity CompressChunk uses.
// Output and errors are identical at every worker count: a flat task
// list claimed in index order means the pool's minimum-index error is
// exactly the error a column-by-column serial walk would hit first.
func DecompressChunk(cc *CompressedChunk, opt *Options) (*Chunk, error) {
	return DecompressChunkContext(context.Background(), cc, opt)
}

// DecompressChunkContext is DecompressChunk with a caller context: the
// per-(column, block) decode tasks observe cancellation and, when the
// context carries a tracing span, record per-block child spans.
func DecompressChunkContext(ctx context.Context, cc *CompressedChunk, opt *Options) (*Chunk, error) {
	decs := make([]*columnDecode, len(cc.Columns))
	for ci, data := range cc.Columns {
		ix, err := ParseColumnIndex(data)
		if err != nil {
			return nil, err
		}
		decs[ci] = newColumnDecode(ix, data, 0, len(ix.Blocks), false)
	}
	if err := decodeColumns(ctx, decs, opt, pathDecompressChunk, true); err != nil {
		return nil, err
	}
	cols := make([]Column, len(decs))
	for ci, d := range decs {
		cols[ci] = d.col
	}
	return &Chunk{Columns: cols}, nil
}

// columnDecode is the decode of blocks [lo, hi) of one column file into
// one Column whose rows and NULL positions count from block lo's first
// row. The pool's tasks share it: each writes only the slots and the
// vector ranges of its own block.
type columnDecode struct {
	ix     *ColumnIndex
	data   []byte
	lo, hi int
	col    Column
	nulls  []*roaring.Bitmap // per block, block-local positions
	// A string column decodes to §5 views, one per block, if the caller
	// asked for them. Otherwise its blocks are first parsed, which is
	// where their byte totals come from; col.Strings is then allocated
	// and block i fills its rows in from Data[dataAt[i]].
	views  []coldata.StringViews
	strs   []core.StringBlock
	dataAt []int
	nanos  []int64 // per parsed block, its parse time, when a recorder is set
	alloc  sync.Once
}

func newColumnDecode(ix *ColumnIndex, data []byte, lo, hi int, views bool) *columnDecode {
	d := &columnDecode{ix: ix, data: data, lo: lo, hi: hi, col: Column{Name: ix.Name, Type: ix.Type}}
	d.nulls = make([]*roaring.Bitmap, hi-lo)
	switch {
	case ix.Type != TypeString:
	case views:
		d.views = make([]coldata.StringViews, hi-lo)
	default:
		d.strs = make([]core.StringBlock, hi-lo)
	}
	return d
}

// allocate makes d.col's vector, exactly: the vector is what a block
// cache accounts by (Column.UncompressedBytes) and spare capacity would
// be memory it does not see. The first task that is about to write to
// the vector allocates it (d.alloc), so that clearing the columns of a
// chunk is spread over the workers like the rest of the decode.
func (d *columnDecode) allocate() {
	rows := d.rowAt(d.hi)
	switch d.ix.Type {
	case TypeInt:
		d.col.Ints = make([]int32, rows)
	case TypeInt64:
		d.col.Ints64 = make([]int64, rows)
	case TypeDouble:
		d.col.Doubles = make([]float64, rows)
	case TypeString:
		d.col.Strings = coldata.Strings{Offsets: make([]uint32, rows+1), Data: make([]byte, d.dataAt[len(d.strs)])}
	}
}

// rowAt returns the row of d.col at which block b starts (for b == hi,
// the row count).
func (d *columnDecode) rowAt(b int) int {
	if b == d.lo {
		return 0
	}
	prev := d.ix.Blocks[b-1]
	return prev.StartRow + prev.Rows - d.ix.Blocks[d.lo].StartRow
}

// decodeScratch recycles decode arenas between calls, so that a one-block
// decode — a cache miss, a lake column — does not allocate its temporaries
// afresh. They are parked untrimmed: a decode leaves at most 16
// block-sized buffers per value type in one.
var decodeScratch = sync.Pool{New: func() any { return new(core.Scratch) }}

// decodeColumns decodes every block of decs on the worker pool, then lays
// out and fills the string columns on it. All of a call's work is a pool
// task but the O(blocks) bookkeeping between the two runs: the whole-file
// CRCs (fileCRC; decs then cover their files) are the first run's last
// tasks, which keeps the serial order — every block, then each file's
// CRC — and with it the min-index first-error contract. A call with one
// block runs it all in line, on one worker.
func decodeColumns(ctx context.Context, decs []*columnDecode, opt *Options, path string, fileCRC bool) error {
	type task struct {
		d *columnDecode
		b int // d.hi: the file's CRC
	}
	var tasks []task
	for _, d := range decs {
		for b := d.lo; b < d.hi; b++ {
			tasks = append(tasks, task{d, b})
		}
	}
	workers := parallelism(opt)
	if len(tasks) == 1 {
		workers = 1
	}
	base := opt.coreConfig()
	rec := opt.telemetryRecorder()
	for _, d := range decs {
		if fileCRC && d.ix.Checksummed() {
			tasks = append(tasks, task{d, d.hi})
		}
		if rec != nil && d.strs != nil {
			d.nanos = make([]int64, len(d.strs))
		}
	}
	scratches := make([]*core.Scratch, parallel.Workers(workers))
	scratch := func(w int) *core.Scratch {
		if scratches[w] == nil {
			scratches[w] = decodeScratch.Get().(*core.Scratch)
		}
		return scratches[w]
	}
	defer func() {
		for _, s := range scratches {
			if s != nil {
				decodeScratch.Put(s)
			}
		}
	}()
	err := parallel.ObservedWorkers(ctx, len(tasks), workers, path, observerOf(rec), func(w, i int) error {
		t := tasks[i]
		if t.b < t.d.hi {
			return t.d.decodeBlock(t.b, base, scratch(w), rec)
		}
		err := verifyTrailingCRC(t.d.data, "column file")
		if err != nil {
			rec.RecordCorruption(1)
		}
		return err
	})
	if err != nil {
		return err
	}
	tasks = tasks[:0]
	for _, d := range decs {
		d.rebaseNulls()
		if d.strs == nil {
			continue
		}
		if err := d.layoutStrings(); err != nil {
			return err
		}
		for b := d.lo; b < d.hi; b++ {
			tasks = append(tasks, task{d, b})
		}
	}
	return parallel.ObservedWorkers(ctx, len(tasks), workers, path, observerOf(rec), func(w, i int) error {
		return tasks[i].d.fillStrings(tasks[i].b, scratch(w), rec)
	})
}

// decodeBlock verifies and decodes block b: the single per-block decoder
// behind every decode path, serial or parallel, which is what makes their
// outputs identical by construction. base is copied per call, so workers
// share one config; scr is the calling worker's private arena.
func (d *columnDecode) decodeBlock(b int, base *core.Config, scr *core.Scratch, rec *obs.Telemetry) error {
	blk, err := d.ix.openBlock(d.data, b, base, rec)
	if err != nil {
		return err
	}
	ref, stream, cfg := blk.ref, blk.stream, &blk.cfg
	cfg.Scratch = scr
	slot, at := b-d.lo, d.rowAt(b)
	if blk.nulls != nil {
		// Ranges ascend, so the last one ends past the largest position.
		end := uint64(0)
		blk.nulls.ForEachRange(func(_, hi uint64) bool {
			end = hi
			return true
		})
		if end > uint64(ref.Rows) {
			return ErrCorrupt
		}
		d.nulls[slot] = blk.nulls
	}
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	if d.ix.Type != TypeString {
		d.alloc.Do(d.allocate)
	}
	var used int
	switch {
	case d.ix.Type == TypeInt:
		used, err = decodeInto(core.Int.Decompress, d.col.Ints[at:at:at+ref.Rows], stream, cfg)
	case d.ix.Type == TypeInt64:
		used, err = decodeInto(core.Int64.Decompress, d.col.Ints64[at:at:at+ref.Rows], stream, cfg)
	case d.ix.Type == TypeDouble:
		used, err = decodeInto(core.Double.Decompress, d.col.Doubles[at:at:at+ref.Rows], stream, cfg)
	case d.views != nil:
		d.views[slot], used, err = core.DecompressString(stream, cfg)
		if err == nil && d.views[slot].Len() != ref.Rows {
			err = ErrCorrupt
		}
	default:
		d.strs[slot], used, err = core.ParseString(stream, cfg)
		if err == nil && d.strs[slot].Rows() != ref.Rows {
			err = ErrCorrupt
		}
	}
	if err := blk.consumed(used, err); err != nil {
		return err
	}
	if rec == nil {
		return nil
	}
	if d.strs != nil {
		// Half decoded: fillStrings records the block.
		d.nanos[slot] = time.Since(start).Nanoseconds()
		return nil
	}
	rec.RecordDecode(1, ref.Rows, ref.DataBytes, time.Since(start).Nanoseconds())
	return nil
}

// decodeInto decodes one numeric stream into dst, a block's empty,
// capacity-bounded range of its column. A stream with fewer values than
// the index declares leaves the range short; one with more has outgrown
// it and moved away, the neighbouring blocks' rows untouched. Both are
// corrupt.
func decodeInto[T any](decode func([]T, []byte, *core.Config) ([]T, int, error), dst []T, stream []byte, cfg *core.Config) (int, error) {
	out, used, err := decode(dst, stream, cfg)
	if err == nil && (len(out) != cap(dst) || len(out) > 0 && &out[0] != &dst[:1][0]) {
		err = ErrCorrupt
	}
	return used, err
}

// rebaseNulls builds col.Nulls from the blocks' masks. One block's mask
// is adopted as it is; several are shifted to their blocks' rows a range
// at a time.
func (d *columnDecode) rebaseNulls() {
	if len(d.nulls) == 1 && d.nulls[0] != nil {
		d.col.Nulls = &NullMask{bm: d.nulls[0]}
		return
	}
	for i, bm := range d.nulls {
		if bm == nil {
			continue
		}
		if d.col.Nulls == nil {
			d.col.Nulls = NewNullMask()
		}
		at := uint32(d.rowAt(d.lo + i))
		bm.ForEachRange(func(lo, hi uint64) bool {
			d.col.Nulls.bm.AddRange(at+uint32(lo), at+uint32(hi))
			return true
		})
	}
}

// layoutStrings gives every parsed block its range of col.Strings.Data,
// now that each knows its byte total.
func (d *columnDecode) layoutStrings() error {
	d.dataAt = make([]int, len(d.strs)+1)
	for i := range d.strs {
		d.dataAt[i+1] = d.dataAt[i] + d.strs[i].Bytes()
	}
	if d.dataAt[len(d.strs)] > math.MaxUint32 {
		return ErrCorrupt // more bytes than an offset can address
	}
	if len(d.strs) == 0 {
		d.allocate()
	}
	return nil
}

// fillStrings appends block b's parsed rows to the block's ranges of
// col.Strings. The ranges are three-index slices: whatever the decoder
// does past their capacity — FSST's 8-byte stores, a slice growing — it
// does to memory no other block owns.
func (d *columnDecode) fillStrings(b int, scr *core.Scratch, rec *obs.Telemetry) error {
	slot, at := b-d.lo, d.rowAt(b)
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	d.alloc.Do(d.allocate)
	s, lo, hi := d.col.Strings, d.dataAt[slot], d.dataAt[slot+1]
	rows := d.strs[slot].Rows()
	dst := coldata.Strings{Offsets: s.Offsets[at+1 : at+1 : at+1+rows], Data: s.Data[lo:lo:hi]}
	if _, err := d.strs[slot].AppendTo(dst, lo, scr); err != nil {
		return err
	}
	if rec != nil {
		ref := d.ix.Blocks[b]
		rec.RecordDecode(1, ref.Rows, ref.DataBytes, d.nanos[slot]+time.Since(start).Nanoseconds())
	}
	return nil
}
