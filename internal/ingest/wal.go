// Package ingest is the write path of the repository: a crash-safe,
// high-throughput ingestion service that accepts concurrent row appends
// over HTTP, stages them in per-table buffers, and publishes them as
// BtrBlocks column files into the same directory btrserved serves.
//
// Durability comes from a write-ahead log: an append is acknowledged
// only after its length-prefixed, CRC32C-framed record is fsynced
// (group commit coalesces concurrent syncs into one fsync). Startup
// replays the WAL to recover every acknowledged row that was not yet
// published; torn or truncated tails — the signature of a crash mid
// write — are detected by the framing and cleanly discarded.
//
// Publication is atomic (write temp + fsync + rename + fsync dir) and
// per chunk: each flush emits one column file per schema column plus a
// commit marker written last, so a crash mid-publish leaves only
// uncommitted garbage that startup removes and the WAL re-publishes. A
// background compactor re-compresses accumulations of small chunks into
// full 64k-value blocks, where the cascade actually wins, and reports
// bytes before/after through the package metrics.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"btrblocks"
	"btrblocks/coldata"
)

// WAL on-disk format (FORMAT.md §2.6):
//
//	walfile := "BTRW" version:u8 record*
//	record  := 'R' payloadLen:u32 payloadCRC:u32 payload[payloadLen]
//
// payloadCRC is the CRC32C (Castagnoli) of the payload bytes. A record
// is valid only if its full payload is present and matches the CRC;
// replay stops at the first invalid frame and discards the tail.

const (
	walMagic   = "BTRW"
	walVersion = 1
	walRecTag  = 'R'
	// walHeaderLen is the segment header: magic + version byte.
	walHeaderLen = len(walMagic) + 1
	// walFrameLen is the per-record frame overhead: tag + length + CRC.
	walFrameLen = 1 + 4 + 4
	// walMaxPayload bounds a single record so a corrupt length field
	// cannot trigger a giant allocation during replay.
	walMaxPayload = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walRecord is one replayed WAL record: a batch of rows for one table.
type walRecord struct {
	Seq   uint64
	Table string
	Chunk btrblocks.Chunk
	pos   walPos // where replay found the record
}

// encodeWALPayload serializes one append: sequence number, table name,
// schema, and the columnar row data. Records are self-contained — the
// schema rides along — so replay needs no external state.
//
//	payload := seq:u64 tableLen:u16 table colCount:u16 column* rowCount:u32 coldata*
//	column  := type:u8 nameLen:u16 name
//	coldata := nullCount:u32 nullPos:u32* values   (per column, schema order)
//
// Values: int32/int64/float64 are little-endian fixed width; strings are
// len:u32 + bytes per row. NULL slots store whatever value the slot
// holds (typically the zero value); the NULL positions are authoritative.
func encodeWALPayload(seq uint64, table string, chunk *btrblocks.Chunk) []byte {
	return appendWALPayload(make([]byte, 0, walPayloadLen(table, chunk)), seq, table, chunk)
}

// walPayloadLen is the length of chunk's payload.
func walPayloadLen(table string, chunk *btrblocks.Chunk) int {
	n := 8 + 2 + len(table) + 2 + 4 + chunk.UncompressedBytes()
	for i := range chunk.Columns {
		n += 1 + 2 + len(chunk.Columns[i].Name) + 4 + 4*chunk.Columns[i].Nulls.NullCount()
	}
	return n
}

// appendWALPayload appends the payload encodeWALPayload returns to out.
func appendWALPayload(out []byte, seq uint64, table string, chunk *btrblocks.Chunk) []byte {
	out = binary.LittleEndian.AppendUint64(out, seq)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(table)))
	out = append(out, table...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(chunk.Columns)))
	for i := range chunk.Columns {
		col := &chunk.Columns[i]
		out = append(out, byte(col.Type))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(col.Name)))
		out = append(out, col.Name...)
	}
	rows := chunk.NumRows()
	out = binary.LittleEndian.AppendUint32(out, uint32(rows))
	for i := range chunk.Columns {
		col := &chunk.Columns[i]
		out = binary.LittleEndian.AppendUint32(out, uint32(col.Nulls.NullCount()))
		col.Nulls.ForEachNull(func(p int) bool {
			out = binary.LittleEndian.AppendUint32(out, uint32(p))
			return true
		})
		switch col.Type {
		case btrblocks.TypeInt:
			for _, v := range col.Ints {
				out = binary.LittleEndian.AppendUint32(out, uint32(v))
			}
		case btrblocks.TypeInt64:
			for _, v := range col.Ints64 {
				out = binary.LittleEndian.AppendUint64(out, uint64(v))
			}
		case btrblocks.TypeDouble:
			for _, v := range col.Doubles {
				out = binary.LittleEndian.AppendUint64(out, floatBits(v))
			}
		case btrblocks.TypeString:
			for r := 0; r < rows; r++ {
				v := col.Strings.View(r)
				out = binary.LittleEndian.AppendUint32(out, uint32(len(v)))
				out = append(out, v...)
			}
		}
	}
	return out
}

// errWALPayload marks a structurally invalid record payload.
var errWALPayload = fmt.Errorf("ingest: invalid WAL record payload")

// decodeWALPayload is the inverse of encodeWALPayload. Any structural
// violation returns errWALPayload; the caller treats it like a torn
// tail (the CRC makes this effectively unreachable except for records
// written by a newer, incompatible encoder).
func decodeWALPayload(p []byte) (*walRecord, error) {
	r := byteReader{buf: p}
	seq := r.u64()
	table := string(r.take(int(r.u16())))
	ncols := int(r.u16())
	if r.bad || ncols > 4096 {
		return nil, errWALPayload
	}
	rec := &walRecord{Seq: seq, Table: table}
	rec.Chunk.Columns = make([]btrblocks.Column, ncols)
	for i := range rec.Chunk.Columns {
		t := btrblocks.Type(r.u8())
		name := string(r.take(int(r.u16())))
		if r.bad || t > btrblocks.TypeInt64 {
			return nil, errWALPayload
		}
		rec.Chunk.Columns[i].Type = t
		rec.Chunk.Columns[i].Name = name
	}
	rows := int(r.u32())
	if r.bad || rows > walMaxPayload {
		return nil, errWALPayload
	}
	for i := range rec.Chunk.Columns {
		col := &rec.Chunk.Columns[i]
		nNulls := int(r.u32())
		if r.bad || nNulls > rows {
			return nil, errWALPayload
		}
		var mask *btrblocks.NullMask
		for j := 0; j < nNulls; j++ {
			pos := int(r.u32())
			if r.bad || pos >= rows {
				return nil, errWALPayload
			}
			if mask == nil {
				mask = btrblocks.NewNullMask()
			}
			mask.SetNull(pos)
		}
		col.Nulls = mask
		switch col.Type {
		case btrblocks.TypeInt:
			col.Ints = make([]int32, rows)
			for j := range col.Ints {
				col.Ints[j] = int32(r.u32())
			}
		case btrblocks.TypeInt64:
			col.Ints64 = make([]int64, rows)
			for j := range col.Ints64 {
				col.Ints64[j] = int64(r.u64())
			}
		case btrblocks.TypeDouble:
			col.Doubles = make([]float64, rows)
			for j := range col.Doubles {
				col.Doubles[j] = floatFromBits(r.u64())
			}
		case btrblocks.TypeString:
			// Walk the lengths first, so the data is allocated once.
			at, size := r.off, 0
			for j := 0; j < rows && !r.bad; j++ {
				n := int(r.u32())
				size += n
				r.take(n)
			}
			if r.bad {
				return nil, errWALPayload
			}
			r.off = at
			col.Strings = coldata.NewStringsBuilder(rows, size)
			for j := 0; j < rows; j++ {
				col.Strings = col.Strings.AppendBytes(r.take(int(r.u32())))
			}
		}
		if r.bad {
			return nil, errWALPayload
		}
	}
	return rec, nil
}

// byteReader is a tiny cursor with sticky failure for payload decoding.
type byteReader struct {
	buf []byte
	off int
	bad bool
}

func (r *byteReader) take(n int) []byte {
	if r.bad || n < 0 || r.off+n > len(r.buf) {
		r.bad = true
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *byteReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// wal is the write-ahead log: a directory of numbered segment files, one
// of which is active. Appends go to the active segment through a
// buffered writer; Sync implements group commit — one fsync covers every
// append that completed before it, and concurrent callers coalesce on
// the sync mutex.
type wal struct {
	dir string
	met *Metrics

	// mu guards the append path: file handle, buffered offsets, the
	// sequence counter, and segment rotation.
	mu      sync.Mutex
	f       *os.File
	segNum  uint64
	written int64 // logical bytes appended to the active segment
	nextSeq uint64
	broken  error // sticky write failure: the segment tail is suspect

	// syncMu serializes fsyncs; synced is the group-commit high-water
	// mark (bytes of the active segment known durable).
	syncMu sync.Mutex
	synced int64
	segGen uint64 // bumped on rotation so stale sync targets don't match
}

// fsyncFile is the group commit's fsync; a test swaps it to fail one.
var fsyncFile = (*os.File).Sync

func walSegmentName(n uint64) string { return fmt.Sprintf("%08d.wal", n) }

// openWAL replays every segment under dir in order (calling apply for
// each valid record), then opens a fresh active segment numbered past
// the existing ones. Torn tails are counted and discarded; only the
// replayed records before the tear are recovered, which is exactly the
// acknowledged prefix.
func openWAL(dir string, met *Metrics, apply func(*walRecord) error) (*wal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range entries {
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), "%08d.wal", &n); err == nil {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	w := &wal{dir: dir, met: met, nextSeq: 1}
	for _, n := range segs {
		if err := w.replaySegment(n, apply); err != nil {
			return nil, err
		}
		if n >= w.segNum {
			w.segNum = n
		}
	}
	w.segNum++
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	return w, nil
}

// replaySegment walks one segment's records. Framing violations — short
// header, short frame, short payload, CRC mismatch — end the walk: they
// are the torn tail of a crashed writer, and everything after them is
// unacknowledged by construction (acks happen only after fsync).
func (w *wal) replaySegment(seg uint64, apply func(*walRecord) error) error {
	data, err := os.ReadFile(filepath.Join(w.dir, walSegmentName(seg)))
	if err != nil {
		return err
	}
	discard := func(off int) {
		if w.met != nil && off < len(data) {
			w.met.WALDiscardedTails.Add(1)
			w.met.WALDiscardedBytes.Add(int64(len(data) - off))
		}
	}
	if len(data) < walHeaderLen || string(data[:4]) != walMagic || data[4] != walVersion {
		// A segment too short to hold its header is a crash during
		// creation; nothing in it was ever acknowledged.
		discard(0)
		return nil
	}
	off := walHeaderLen
	for off < len(data) {
		if data[off] != walRecTag || off+walFrameLen > len(data) {
			discard(off)
			return nil
		}
		payloadLen := int(binary.LittleEndian.Uint32(data[off+1 : off+5]))
		storedCRC := binary.LittleEndian.Uint32(data[off+5 : off+9])
		if payloadLen > walMaxPayload || off+walFrameLen+payloadLen > len(data) {
			discard(off)
			return nil
		}
		payload := data[off+walFrameLen : off+walFrameLen+payloadLen]
		if crc32.Checksum(payload, castagnoli) != storedCRC {
			discard(off)
			return nil
		}
		rec, err := decodeWALPayload(payload)
		if err != nil {
			discard(off)
			return nil
		}
		if rec.Seq >= w.nextSeq {
			w.nextSeq = rec.Seq + 1
		}
		rec.pos = walPos{seg: seg, off: int64(off), n: walFrameLen + payloadLen}
		if err := apply(rec); err != nil {
			return err
		}
		off += walFrameLen + payloadLen
	}
	return nil
}

// openSegment creates the active segment with a synced header, then
// syncs the directory so the file name itself is durable.
func (w *wal) openSegment() error {
	path := filepath.Join(w.dir, walSegmentName(w.segNum))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := append([]byte(walMagic), walVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.written = int64(walHeaderLen)
	w.synced = int64(walHeaderLen)
	w.broken = nil
	return nil
}

// walPos is where one record's frame lies: its segment, the byte offset
// of the frame in it, and the frame's length.
type walPos struct {
	seg uint64
	off int64
	n   int
}

// end is the offset a caller syncs the segment to before acknowledging
// the record.
func (p walPos) end() int64 { return p.off + int64(p.n) }

// append frames and writes one record to the active segment and returns
// its sequence number and where it lies: a caller must sync to its end
// before acknowledging. The write lands in the OS (unbuffered file
// write) but is not durable until syncTo covers it.
func (w *wal) append(table string, chunk *btrblocks.Chunk) (seq uint64, pos walPos, gen uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return 0, pos, 0, fmt.Errorf("ingest: WAL segment is broken by an earlier write failure: %w", w.broken)
	}
	if w.f == nil {
		return 0, pos, 0, fmt.Errorf("ingest: WAL is closed")
	}
	seq = w.nextSeq
	// The payload is encoded after room for the frame header, which is
	// filled in once the payload's length and CRC are known.
	frame := appendWALPayload(make([]byte, walFrameLen, walFrameLen+walPayloadLen(table, chunk)), seq, table, chunk)
	payload := frame[walFrameLen:]
	frame[0] = walRecTag
	binary.LittleEndian.PutUint32(frame[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[5:], crc32.Checksum(payload, castagnoli))
	if _, err := w.f.Write(frame); err != nil {
		// The segment now ends in a partial frame; replay will discard it,
		// but nothing more can be appended safely.
		w.broken = err
		return 0, pos, 0, err
	}
	pos = walPos{seg: w.segNum, off: w.written, n: len(frame)}
	w.nextSeq++
	w.written += int64(len(frame))
	if w.met != nil {
		w.met.WALRecords.Add(1)
		w.met.WALBytes.Add(int64(len(frame)))
	}
	return seq, pos, w.segGen, nil
}

// read returns the record append wrote (or replay found) at pos,
// checking its frame as replay does. A checkpoint must not have removed
// the segment since: it runs only when no buffered record is left to
// publish.
func (w *wal) read(pos walPos) (*walRecord, error) {
	name := walSegmentName(pos.seg)
	f, err := os.Open(filepath.Join(w.dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	frame := make([]byte, pos.n)
	if _, err := f.ReadAt(frame, pos.off); err != nil {
		return nil, fmt.Errorf("ingest: read WAL record at %s:%d: %w", name, pos.off, err)
	}
	payload := frame[walFrameLen:]
	if frame[0] != walRecTag || int(binary.LittleEndian.Uint32(frame[1:])) != len(payload) ||
		crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[5:]) {
		return nil, fmt.Errorf("ingest: WAL record at %s:%d is damaged", name, pos.off)
	}
	return decodeWALPayload(payload)
}

// syncTo makes every byte up to off of segment generation gen durable.
// Group commit: the caller that wins the sync mutex fsyncs on behalf of
// everyone who appended before it; latecomers find their offset already
// covered and return without a second fsync.
func (w *wal) syncTo(off int64, gen uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if gen != w.segGen {
		// The segment was rotated after this append; rotation only happens
		// at a checkpoint, which fsyncs first.
		return nil
	}
	if w.synced >= off {
		return nil
	}
	w.mu.Lock()
	f, target := w.f, w.written
	w.mu.Unlock()
	if f == nil {
		return fmt.Errorf("ingest: WAL is closed")
	}
	if err := fsyncFile(f); err != nil {
		return err
	}
	if w.met != nil {
		w.met.WALSyncs.Add(1)
	}
	w.synced = target
	return nil
}

// checkpoint rotates to a fresh segment and deletes the old ones. The
// caller guarantees every record in the old segments is published (all
// table buffers empty), so losing them loses nothing. Ordering: the new
// segment is created and made durable before the old ones are removed —
// a crash between the two merely replays records that publication
// already supersedes.
func (w *wal) checkpoint() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("ingest: WAL is closed")
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	old := w.segNum
	if err := w.f.Close(); err != nil {
		return err
	}
	w.segNum++
	w.segGen++
	if err := w.openSegment(); err != nil {
		w.f = nil
		return err
	}
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), "%08d.wal", &n); err == nil && n <= old {
			os.Remove(filepath.Join(w.dir, e.Name()))
		}
	}
	if w.met != nil {
		w.met.WALCheckpoints.Add(1)
	}
	return syncDir(w.dir)
}

// ensureSeqAfter guarantees the next assigned sequence number is
// strictly greater than seq. Called at startup with the highest
// sequence any published chunk carries: a checkpoint may have pruned
// the records that taught replay about those numbers, and reusing one
// would make a future replay drop a live record as already published.
func (w *wal) ensureSeqAfter(seq uint64) {
	w.mu.Lock()
	if seq >= w.nextSeq {
		w.nextSeq = seq + 1
	}
	w.mu.Unlock()
}

// size returns the logical size of the active segment.
func (w *wal) size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// close fsyncs and closes the active segment.
func (w *wal) close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// crash abandons the WAL without syncing — the test hook that models a
// kill -9: whatever the OS has not yet been told to persist is lost.
func (w *wal) crash() {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

// syncDir fsyncs a directory so renames and creations inside it are
// durable. Some platforms reject directory fsync; that is not fatal.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !isSyncUnsupported(err) {
		return err
	}
	return nil
}

func isSyncUnsupported(err error) bool {
	// EPERM/EACCES and EOF cover sandboxed filesystems; EINVAL and
	// ENOTSUP are what filesystems that simply do not implement
	// directory fsync typically return.
	return err != nil && (os.IsPermission(err) || err == io.EOF ||
		errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP))
}
