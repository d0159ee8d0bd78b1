package btrblocks

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Sentinel errors of the stream writer, in the style of ErrCorrupt:
// returned wrapped with context, so test with errors.Is.
var (
	// ErrSchemaMismatch is returned by Writer.WriteChunk when the chunk's
	// columns do not match the stream schema in count, name or type.
	ErrSchemaMismatch = errors.New("btrblocks: chunk does not match stream schema")
	// ErrWriterClosed is returned by Writer.WriteChunk after Close.
	ErrWriterClosed = errors.New("btrblocks: write after Close")
	// ErrReaderClosed is returned by Reader.Next after Close.
	ErrReaderClosed = errors.New("btrblocks: read after Close")
)

// This file implements a streaming table format on top of the chunk
// format: a Writer consumes chunks (e.g. one per 64k-row ingest batch)
// and emits a framed sequence the Reader consumes chunk by chunk, so
// tables larger than memory round-trip through ordinary io.Writer /
// io.Reader plumbing.
//
//	stream  := magic "BTRS" version:u8 schema chunk* footer [streamCRC:u32]
//	schema  := colCount:u16 (type:u8 nameLen:u16 name)*
//	chunk   := 'C' chunkLen:u32 <CompressedChunk file bytes>
//	footer  := 'E' chunkCount:u32 rowCount:u64
//
// In format v2 the stream ends with a CRC32C over every preceding byte
// (magic through footer inclusive); v1 streams have no trailing checksum.
// The reading side of the grammar is streamScanner (container.go).

// Writer writes a stream of compressed chunks with a fixed schema.
type Writer struct {
	w        *bufio.Writer
	opt      *Options
	schema   []Column // names/types only
	ver      byte
	sum      uint32 // running CRC32C over all bytes written (v2 only)
	chunks   int
	rows     uint64
	finished bool
}

// writeBytes writes b and, for checksummed streams, folds it into the
// running stream CRC. All stream bytes must go through here (or
// writeByte) so the footer checksum covers everything.
func (w *Writer) writeBytes(b []byte) error {
	if checksummedVersion(w.ver) {
		w.sum = crc32.Update(w.sum, castagnoli, b)
	}
	_, err := w.w.Write(b)
	return err
}

func (w *Writer) writeByte(b byte) error {
	return w.writeBytes([]byte{b})
}

// NewWriter starts a stream with the schema taken from the given columns
// (their data is ignored; only Name and Type matter).
func NewWriter(w io.Writer, schema []Column, opt *Options) (*Writer, error) {
	ver, err := opt.formatVersionOf()
	if err != nil {
		return nil, err
	}
	sw := &Writer{w: bufio.NewWriter(w), opt: opt, schema: schema, ver: ver}
	var hdr []byte
	hdr = append(hdr, streamMagic...)
	hdr = append(hdr, ver)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(schema)))
	for _, col := range schema {
		hdr = append(hdr, byte(col.Type))
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(col.Name)))
		hdr = append(hdr, col.Name...)
	}
	if err := sw.writeBytes(hdr); err != nil {
		return nil, err
	}
	return sw, nil
}

// WriteChunk compresses and appends one chunk. The chunk's columns must
// match the writer's schema in order, name and type.
func (w *Writer) WriteChunk(chunk *Chunk) error {
	if w.finished {
		return ErrWriterClosed
	}
	if len(chunk.Columns) != len(w.schema) {
		return fmt.Errorf("%w: chunk has %d columns, schema has %d",
			ErrSchemaMismatch, len(chunk.Columns), len(w.schema))
	}
	for i := range chunk.Columns {
		if chunk.Columns[i].Name != w.schema[i].Name || chunk.Columns[i].Type != w.schema[i].Type {
			return fmt.Errorf("%w: column %d (%s %s) does not match schema (%s %s)",
				ErrSchemaMismatch, i, chunk.Columns[i].Name, chunk.Columns[i].Type,
				w.schema[i].Name, w.schema[i].Type)
		}
	}
	cc, err := CompressChunk(chunk, w.opt)
	if err != nil {
		return err
	}
	payload := cc.EncodeFile()
	if err := w.writeByte('C'); err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	if err := w.writeBytes(lenBuf[:]); err != nil {
		return err
	}
	if err := w.writeBytes(payload); err != nil {
		return err
	}
	w.chunks++
	w.rows += uint64(chunk.NumRows())
	return nil
}

// Close writes the footer and flushes. It does not close the underlying
// writer. Close is idempotent: calls after the first return nil without
// writing a second footer.
func (w *Writer) Close() error {
	if w.finished {
		return nil
	}
	w.finished = true
	if err := w.writeByte('E'); err != nil {
		return err
	}
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(w.chunks))
	binary.LittleEndian.PutUint64(buf[4:], w.rows)
	if err := w.writeBytes(buf[:]); err != nil {
		return err
	}
	if checksummedVersion(w.ver) {
		var crcBuf [crcBytes]byte
		binary.LittleEndian.PutUint32(crcBuf[:], w.sum)
		if _, err := w.w.Write(crcBuf[:]); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// Reader reads a stream written by Writer. When Options.Parallelism
// allows more than one worker, the Reader runs a decode-ahead pipeline:
// a background goroutine reads and decompresses the next chunks while
// the caller consumes the current one, with backpressure from a bounded
// buffer. Call Close to release the pipeline when abandoning a stream
// before io.EOF; a fully consumed stream needs no Close.
type Reader struct {
	s   *streamScanner
	opt *Options

	// Decode-ahead pipeline state. ahead is nil for serial readers.
	// The scanner is producer-owned while the pipeline runs; the consumer
	// observes its counts only after the terminal channel send.
	ahead    chan aheadResult
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	termErr  error // consumer-owned: sticky terminal error after pipeline end
}

// aheadResult is one decode-ahead pipeline item: a decoded chunk or the
// terminal error (io.EOF after a clean footer).
type aheadResult struct {
	chunk *Chunk
	err   error
}

// aheadDepth is how many decoded chunks the pipeline may buffer ahead
// of the consumer (one more may be in flight inside the goroutine).
const aheadDepth = 2

// NewReader parses the stream header and returns a Reader positioned at
// the first chunk.
func NewReader(r io.Reader, opt *Options) (*Reader, error) {
	s, err := newStreamScanner(r)
	if err != nil {
		return nil, err
	}
	sr := &Reader{s: s, opt: opt, stop: make(chan struct{})}
	if parallelism(opt) > 1 {
		// Decode-ahead pipeline: one goroutine reads and decompresses
		// chunks sequentially (stream framing is inherently serial — the
		// running CRC orders the reads) while DecompressChunk inside it
		// fans out across blocks. The bounded channel is the backpressure:
		// at most aheadDepth decoded chunks wait for the consumer.
		sr.ahead = make(chan aheadResult, aheadDepth)
		opt.telemetryRecorder().RecordWorkers(pathStreamAhead, aheadDepth)
		sr.wg.Add(1)
		go func() {
			defer sr.wg.Done()
			defer close(sr.ahead)
			for {
				chunk, err := sr.readChunk()
				select {
				case sr.ahead <- aheadResult{chunk, err}:
				case <-sr.stop:
					return
				}
				if err != nil {
					return
				}
			}
		}()
	}
	return sr, nil
}

// Schema returns the stream's column names and types.
func (r *Reader) Schema() []Column { return r.s.schema }

// Next decompresses and returns the next chunk, or io.EOF after the
// footer has been consumed (Rows/Chunks are then valid). Any non-EOF
// error is terminal: subsequent calls return it again.
func (r *Reader) Next() (*Chunk, error) {
	if r.ahead == nil {
		if r.termErr != nil {
			return nil, r.termErr
		}
		chunk, err := r.readChunk()
		if err != nil && err != io.EOF {
			// Latch the error: resuming the walk after a failed frame would
			// misparse whatever follows.
			r.termErr = err
		}
		return chunk, err
	}
	if r.termErr != nil {
		return nil, r.termErr
	}
	// Check stop first: after Close, a select between the closed stop
	// channel and a buffered pipeline result would pick randomly — reads
	// after Close must deterministically fail, not drain leftovers.
	select {
	case <-r.stop:
		return nil, ErrReaderClosed
	default:
	}
	select {
	case res, ok := <-r.ahead:
		if !ok {
			r.termErr = io.EOF
			return nil, io.EOF
		}
		if res.err != nil {
			r.termErr = res.err
			return nil, res.err
		}
		return res.chunk, nil
	case <-r.stop:
		return nil, ErrReaderClosed
	}
}

// readChunk reads and decompresses the next chunk frame from the
// underlying stream — the serial core both the direct path and the
// decode-ahead goroutine run.
func (r *Reader) readChunk() (*Chunk, error) {
	ch, err := r.s.next()
	if errors.Is(err, ErrChecksumMismatch) {
		r.opt.telemetryRecorder().RecordCorruption(1)
	}
	if err != nil {
		return nil, err
	}
	return DecompressChunk(ch.cc, r.opt)
}

// Close stops the decode-ahead pipeline and waits for its goroutine to
// exit. It is idempotent, safe to call on serial readers (a no-op), and
// unnecessary when the stream was consumed through io.EOF — but always
// safe. It does not close the underlying reader.
func (r *Reader) Close() error {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	return nil
}

// Rows returns the stream's total row count, which the footer was
// checked against; valid after Next returned io.EOF.
func (r *Reader) Rows() uint64 { return r.s.rows }

// Chunks returns the stream's chunk count, which the footer was checked
// against; valid after Next returned io.EOF.
func (r *Reader) Chunks() int { return r.s.chunks }
