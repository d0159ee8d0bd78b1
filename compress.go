package btrblocks

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"btrblocks/coldata"
	"btrblocks/internal/core"
	"btrblocks/internal/obs"
	"btrblocks/internal/parallel"
	"btrblocks/internal/roaring"
)

// Errors returned by the format layer.
var (
	ErrCorrupt      = errors.New("btrblocks: corrupt file")
	ErrTypeMismatch = errors.New("btrblocks: column type mismatch")
)

const (
	// formatVersion1 is the original checksum-free layout; formatVersion2
	// adds a CRC32C after every block and at the end of every container.
	formatVersion1 = 1
	formatVersion2 = 2
	// formatVersion is the version new files are written with unless
	// Options.FormatVersion overrides it.
	formatVersion = formatVersion2
)

// Parallel-path names the worker-pool engine reports to telemetry
// (Recorder.RecordWorkers / ObserveQueueWait).
const (
	pathCompressChunk    = "compress_chunk"
	pathCompressColumn   = "compress_column"
	pathDecompressChunk  = "decompress_chunk"
	pathDecompressColumn = "decompress_column"
	pathStreamAhead      = "stream_ahead"
)

// observerOf adapts an optional telemetry recorder to the pool's
// Observer interface without handing it a typed nil.
func observerOf(rec *obs.Telemetry) parallel.Observer {
	if rec == nil {
		return nil
	}
	return rec
}

// CompressColumn compresses one column into a self-contained column file:
// a header followed by independently decompressible blocks of
// opt.BlockSize values, each carrying its NULL bitmap and compressed data
// stream. This is the one-file-per-column layout §6.7 uses on S3.
func CompressColumn(col Column, opt *Options) ([]byte, error) {
	return CompressColumnContext(context.Background(), col, opt)
}

// CompressColumnContext is CompressColumn with a caller context: the
// per-block encode tasks observe cancellation and, when the context
// carries a tracing span (obs.StartChild), record per-block child spans
// tagged with worker id and queue wait.
func CompressColumnContext(ctx context.Context, col Column, opt *Options) ([]byte, error) {
	ver, err := opt.formatVersionOf()
	if err != nil {
		return nil, err
	}
	blocks, err := compressColumnBlocks(ctx, col, opt)
	if err != nil {
		return nil, err
	}
	return assembleColumnFile(col, blocks, ver), nil
}

// compressColumnBlocks produces the per-block payloads of a column.
func compressColumnBlocks(ctx context.Context, col Column, opt *Options) ([][]byte, error) {
	if len(col.Name) > math.MaxUint16 {
		return nil, fmt.Errorf("btrblocks: column name too long (%d bytes)", len(col.Name))
	}
	if opt != nil && opt.BlockSize > core.MaxBlockValues {
		return nil, fmt.Errorf("btrblocks: block size %d exceeds maximum %d", opt.BlockSize, core.MaxBlockValues)
	}
	cfg := opt.coreConfig()
	rec := opt.telemetryRecorder()
	tracer := opt.tracer()
	bs := opt.blockSize()
	n := col.Len()
	numBlocks := (n + bs - 1) / bs
	blocks := make([][]byte, numBlocks)
	// Blocks are independent; encode them on the shared pool. Output
	// lands in per-block slots, so the file bytes are identical at every
	// worker count. Each worker keeps one scratch arena for its blocks.
	scratches := make([]*core.Scratch, parallel.Workers(parallelism(opt)))
	if err := parallel.ObservedWorkers(ctx, numBlocks, parallelism(opt), pathCompressColumn, observerOf(rec), func(w, b int) error {
		lo := b * bs
		hi := lo + bs
		if hi > n {
			hi = n
		}
		blocks[b] = compressBlock(&col, b, lo, hi, cfg, workerScratch(scratches, w), rec, tracer)
		return nil
	}); err != nil {
		return nil, err
	}
	releaseScratches(scratches)
	return blocks, nil
}

// compressScratch recycles the workers' arenas between compression calls.
var compressScratch = sync.Pool{New: func() any { return new(core.Scratch) }}

// workerScratch returns worker w's arena for this call, taking one from
// the pool the first time the worker asks.
func workerScratch(scratches []*core.Scratch, w int) *core.Scratch {
	if scratches[w] == nil {
		scratches[w] = compressScratch.Get().(*core.Scratch)
	}
	return scratches[w]
}

// releaseScratches trims the arenas a call used and returns them to the
// pool.
func releaseScratches(scratches []*core.Scratch) {
	for _, s := range scratches {
		if s != nil {
			s.Trim()
			compressScratch.Put(s)
		}
	}
}

// compressBlock encodes one block with the calling worker's scratch
// arena, routing through the observed path when a telemetry recorder or a
// decision tracer is set.
func compressBlock(col *Column, block, lo, hi int, base *core.Config, scr *core.Scratch, rec *obs.Telemetry, tracer *Tracer) []byte {
	cfg := *base
	cfg.Scratch = scr
	if rec == nil && tracer == nil {
		return encodeBlock(col, lo, hi, &cfg)
	}
	return recordBlock(col, block, lo, hi, &cfg, rec, tracer)
}

// encodeBlock encodes rows [lo, hi) of col as:
// rows:u32 nullLen:u32 [roaring bytes] dataLen:u32 data-stream.
func encodeBlock(col *Column, lo, hi int, cfg *core.Config) []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(hi-lo))
	nulls := col.Nulls.slice(lo, hi)
	if nulls == nil {
		out = binary.LittleEndian.AppendUint32(out, 0)
	} else {
		nb := nulls.AppendTo(nil)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(nb)))
		out = append(out, nb...)
	}
	lenPos := len(out)
	out = binary.LittleEndian.AppendUint32(out, 0) // patched below
	out, _, _ = cascadeBlock(col, lo, hi, nulls, out, cfg, false)
	binary.LittleEndian.PutUint32(out[lenPos:], uint32(len(out)-lenPos-4))
	return out
}

// cascadeBlock runs the cascade over rows [lo, hi) of col as a block
// stores them, NULL slots densified first: it appends the encoded stream
// to out or, with chooseOnly, reports the root scheme and its estimate
// without encoding. Compression and Choose both go through here, so Choose
// reports the scheme the block is stored with.
func cascadeBlock(col *Column, lo, hi int, nulls *roaring.Bitmap, out []byte, cfg *core.Config, chooseOnly bool) ([]byte, Scheme, float64) {
	switch col.Type {
	case TypeInt:
		return cascadeValues(core.Int, densify(col.Ints[lo:hi], nulls), out, cfg, chooseOnly)
	case TypeInt64:
		return cascadeValues(core.Int64, densify(col.Ints64[lo:hi], nulls), out, cfg, chooseOnly)
	case TypeDouble:
		return cascadeValues(core.Double, densify(col.Doubles[lo:hi], nulls), out, cfg, chooseOnly)
	case TypeString:
		return cascadeValues(core.String, densifyStrings(col.Strings.Slice(lo, hi), nulls), out, cfg, chooseOnly)
	}
	return out, SchemeUncompressed, 1
}

// cascadeValues is cascadeBlock's step for one column kind's descriptor.
func cascadeValues[V any](kind interface {
	Compress([]byte, V, *core.Config) []byte
	Choose(V, *core.Config) (core.Code, float64)
}, values V, out []byte, cfg *core.Config, chooseOnly bool) ([]byte, Scheme, float64) {
	if chooseOnly {
		code, est := kind.Choose(values, cfg)
		return out, code, est
	}
	return kind.Compress(out, values, cfg), 0, 0
}

// densify rewrites NULL positions to the previous row's value (the zero
// value at row 0) so they form runs instead of noise; NULL content is
// unspecified by contract. nulls holds block-local positions, visited
// once in ascending order, so the previous row is already rewritten. A
// block without NULLs is returned as it is.
func densify[T any](src []T, nulls *roaring.Bitmap) []T {
	if nulls == nil {
		return src
	}
	out := append([]T(nil), src...)
	nulls.ForEach(func(v uint32) bool {
		if v == 0 {
			var zero T
			out[0] = zero
		} else {
			out[v] = out[v-1]
		}
		return true
	})
	return out
}

// densifyStrings is densify for the flattened string vector.
func densifyStrings(src coldata.Strings, nulls *roaring.Bitmap) coldata.Strings {
	if nulls == nil {
		return src
	}
	n := src.Len()
	out := coldata.NewStringsBuilder(n, len(src.Data))
	copyUpTo := func(row int) {
		for i := out.Len(); i < row; i++ {
			out = out.AppendBytes(src.View(i))
		}
	}
	nulls.ForEach(func(v uint32) bool {
		copyUpTo(int(v))
		if v == 0 {
			out = out.Append("")
		} else {
			out = out.AppendBytes(out.View(int(v) - 1))
		}
		return true
	})
	copyUpTo(n)
	return out
}

func assembleColumnFile(col Column, blocks [][]byte, ver byte) []byte {
	size := len(columnMagic) + 2 + 2 + len(col.Name) + 4 + crcBytes
	for _, b := range blocks {
		size += len(b) + crcBytes
	}
	out := make([]byte, 0, size)
	out = append(out, columnMagic...)
	out = append(out, ver, byte(col.Type))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(col.Name)))
	out = append(out, col.Name...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(blocks)))
	for _, b := range blocks {
		out = append(out, b...)
		if checksummedVersion(ver) {
			out = binary.LittleEndian.AppendUint32(out, crc32c(b))
		}
	}
	if checksummedVersion(ver) {
		out = appendCRC32C(out)
	}
	return out
}

// ColumnStats describes one compressed column.
type ColumnStats struct {
	Name              string
	Type              Type
	Rows              int
	UncompressedBytes int
	CompressedBytes   int
	// BlockSchemes is the root scheme chosen for each block.
	BlockSchemes []Scheme
}

// Ratio returns the compression factor.
func (s ColumnStats) Ratio() float64 {
	if s.CompressedBytes == 0 {
		return 0
	}
	return float64(s.UncompressedBytes) / float64(s.CompressedBytes)
}

// CompressedChunk is a compressed chunk: one column file per column.
type CompressedChunk struct {
	Columns [][]byte
	Stats   []ColumnStats
	// Version is the on-disk format version the chunk was compressed
	// with; CompressChunk and DecodeFile set it, and EncodeFile writes it
	// as the container version. Zero means "current" (formatVersion).
	Version byte
}

// CompressedBytes sums the column file sizes.
func (c *CompressedChunk) CompressedBytes() int {
	total := 0
	for _, col := range c.Columns {
		total += len(col)
	}
	return total
}

// CompressChunk compresses all columns of a chunk, parallelizing across
// column blocks (the unit the paper parallelizes on too).
func CompressChunk(chunk *Chunk, opt *Options) (*CompressedChunk, error) {
	if opt != nil && opt.BlockSize > core.MaxBlockValues {
		return nil, fmt.Errorf("btrblocks: block size %d exceeds maximum %d", opt.BlockSize, core.MaxBlockValues)
	}
	ver, err := opt.formatVersionOf()
	if err != nil {
		return nil, err
	}
	type task struct {
		col   int
		block int
	}
	bs := opt.blockSize()
	nCols := len(chunk.Columns)
	blockBufs := make([][][]byte, nCols)
	var tasks []task
	for ci := range chunk.Columns {
		n := chunk.Columns[ci].Len()
		numBlocks := (n + bs - 1) / bs
		blockBufs[ci] = make([][]byte, numBlocks)
		for b := 0; b < numBlocks; b++ {
			tasks = append(tasks, task{ci, b})
		}
	}

	cfg := opt.coreConfig()
	rec := opt.telemetryRecorder()
	tracer := opt.tracer()
	scratches := make([]*core.Scratch, parallel.Workers(parallelism(opt)))
	_ = parallel.ObservedWorkers(context.Background(), len(tasks), parallelism(opt), pathCompressChunk, observerOf(rec), func(w, i int) error {
		t := tasks[i]
		col := &chunk.Columns[t.col]
		lo := t.block * bs
		hi := lo + bs
		if hi > col.Len() {
			hi = col.Len()
		}
		blockBufs[t.col][t.block] = compressBlock(col, t.block, lo, hi, cfg, workerScratch(scratches, w), rec, tracer)
		return nil
	})
	releaseScratches(scratches)

	out := &CompressedChunk{
		Columns: make([][]byte, nCols),
		Stats:   make([]ColumnStats, nCols),
		Version: ver,
	}
	for ci := range chunk.Columns {
		col := &chunk.Columns[ci]
		if len(col.Name) > math.MaxUint16 {
			return nil, fmt.Errorf("btrblocks: column name too long (%d bytes)", len(col.Name))
		}
		out.Columns[ci] = assembleColumnFile(*col, blockBufs[ci], ver)
		st := ColumnStats{
			Name:              col.Name,
			Type:              col.Type,
			Rows:              col.Len(),
			UncompressedBytes: col.UncompressedBytes(),
			CompressedBytes:   len(out.Columns[ci]),
		}
		for _, b := range blockBufs[ci] {
			st.BlockSchemes = append(st.BlockSchemes, blockRootScheme(b))
		}
		out.Stats[ci] = st
	}
	return out, nil
}

// blockRootScheme extracts the root scheme code from a block payload.
func blockRootScheme(block []byte) Scheme {
	// rows:u32 nullLen:u32 [nulls] dataLen:u32 code...
	if len(block) < 8 {
		return SchemeUncompressed
	}
	nullLen := int(binary.LittleEndian.Uint32(block[4:]))
	p := 8 + nullLen + 4
	if len(block) <= p {
		return SchemeUncompressed
	}
	return Scheme(block[p])
}

func parallelism(opt *Options) int {
	if opt != nil && opt.Parallelism > 0 {
		return opt.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// EncodeFile bundles a compressed chunk into a single byte stream:
// magic, version, column count, column file lengths, column files, and —
// for v2 chunks — a trailing CRC32C over everything before it. The
// container version is the chunk's Version (the version it was
// compressed with), so the container always matches the embedded
// column files; a zero Version encodes as the current formatVersion.
func (c *CompressedChunk) EncodeFile() []byte {
	ver := c.Version
	if ver == 0 {
		ver = formatVersion
	}
	var out []byte
	out = append(out, fileMagic...)
	out = append(out, ver)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(c.Columns)))
	for _, col := range c.Columns {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(col)))
	}
	for _, col := range c.Columns {
		out = append(out, col...)
	}
	if checksummedVersion(ver) {
		out = appendCRC32C(out)
	}
	return out
}

// Choose reports the scheme the selection algorithm picks for the first
// block of a column — the scheme the block is stored with — and the
// estimated compression ratio: handy for inspecting selection decisions
// (Table 4's "Scheme (Root)" column).
func Choose(col Column, opt *Options) (Scheme, float64) {
	hi := min(col.Len(), opt.blockSize())
	_, code, est := cascadeBlock(&col, 0, hi, col.Nulls.slice(0, hi), nil, opt.coreConfig(), true)
	return code, est
}
