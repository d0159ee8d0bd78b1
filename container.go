package btrblocks

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"btrblocks/internal/core"
)

// This file is the container grammar of FORMAT.md §2: one parser per
// container framing. ParseColumnIndex parses column files, parseChunk
// chunk files and streamScanner streams. Every reader — the decoders,
// Inspect, Verify, Reader and NewAppendWriter — goes through them, so a
// file one reader accepts, all of them accept. Magic and version bytes
// are checked here and nowhere else.

const (
	columnMagic = "BTRC"
	fileMagic   = "BTRB"
	streamMagic = "BTRS"
)

// Fixed sizes of the stream framing: a chunk frame's 'C' tag and length,
// and the footer ('E' chunkCount:u32 rowCount:u64).
const (
	streamFrameBytes  = 5
	streamFooterBytes = 13
)

// SniffKind detects the container format from a file's magic bytes.
func SniffKind(data []byte) (FileKind, bool) {
	if len(data) < 4 {
		return 0, false
	}
	switch string(data[:4]) {
	case columnMagic:
		return FileKindColumn, true
	case fileMagic:
		return FileKindChunk, true
	case streamMagic:
		return FileKindStream, true
	}
	return 0, false
}

// supportedVersion checks the version byte that follows every
// container's magic.
func supportedVersion(v byte, what string) error {
	if v != formatVersion1 && v != formatVersion2 {
		return fmt.Errorf("btrblocks: unsupported %s version %d", what, v)
	}
	return nil
}

// ParseColumnIndex walks a column file's framing and returns its block
// directory without decompressing any payload. Like Inspect, it verifies
// that the framing accounts for every byte of the file.
func ParseColumnIndex(data []byte) (*ColumnIndex, error) {
	if len(data) < 12 || string(data[:4]) != columnMagic {
		return nil, ErrCorrupt
	}
	if err := supportedVersion(data[4], "column file"); err != nil {
		return nil, err
	}
	t := Type(data[5])
	if t > maxType {
		return nil, ErrCorrupt
	}
	checksummed := checksummedVersion(data[4])
	bodyEnd := len(data)
	if checksummed {
		if len(data) < 12+crcBytes {
			return nil, ErrTruncatedFile
		}
		bodyEnd -= crcBytes
	}
	nameLen := int(binary.LittleEndian.Uint16(data[6:]))
	pos := 8
	if bodyEnd < pos+nameLen+4 {
		return nil, ErrTruncatedFile
	}
	ix := &ColumnIndex{Name: string(data[pos : pos+nameLen]), Type: t, Version: int(data[4])}
	pos += nameLen
	blockCount := int(binary.LittleEndian.Uint32(data[pos:]))
	pos += 4
	if blockCount < 0 || blockCount > len(data) {
		return nil, ErrCorrupt
	}
	// Cap the pre-allocation: every block needs ≥ 12 bytes of framing, so a
	// declared count beyond len(data)/12 is a lie and would over-allocate.
	ix.Blocks = make([]BlockRef, 0, min(blockCount, len(data)/12))
	for b := 0; b < blockCount; b++ {
		if bodyEnd < pos+8 {
			return nil, ErrTruncatedFile
		}
		rows := int(binary.LittleEndian.Uint32(data[pos:]))
		nullLen := int(binary.LittleEndian.Uint32(data[pos+4:]))
		if rows > core.MaxBlockValues || nullLen < 0 || bodyEnd < pos+8+nullLen+4 {
			return nil, ErrCorrupt
		}
		ref := BlockRef{Offset: pos, StartRow: ix.Rows, Rows: rows, NullBytes: nullLen}
		ref.DataBytes = int(binary.LittleEndian.Uint32(data[pos+8+nullLen:]))
		if ref.DataBytes < 0 || ref.End() > bodyEnd {
			return nil, ErrCorrupt
		}
		if ref.DataBytes > 0 {
			ref.Scheme = Scheme(data[ref.DataOffset()])
		}
		pos = ref.End()
		if checksummed {
			if pos+crcBytes > bodyEnd {
				return nil, ErrTruncatedFile
			}
			ref.Checksum = binary.LittleEndian.Uint32(data[pos:])
			pos += crcBytes
		}
		ix.Blocks = append(ix.Blocks, ref)
		ix.Rows += rows
	}
	if pos != bodyEnd {
		return nil, ErrCorrupt
	}
	return ix, nil
}

// ColumnFileType returns a column file's stored type without
// decompressing anything.
func ColumnFileType(data []byte) (Type, error) {
	ix, err := ParseColumnIndex(data)
	if err != nil {
		return 0, err
	}
	return ix.Type, nil
}

// DecodeFile parses a stream produced by EncodeFile. For v2 files the
// container checksum is verified here; the per-block checksums inside
// the column files are verified when the columns are decompressed.
func DecodeFile(data []byte) (*CompressedChunk, error) {
	cc, _, err := parseChunk(data)
	if err != nil {
		return nil, err
	}
	return cc, nil
}

// parseChunk parses a chunk file and returns its column files, as
// sub-slices of data, and the size of its header (magic, version, column
// count, length table). It is best-effort for Verify: the columns it
// located before the first error are returned with it, and a v2 file
// whose checksum fails is still walked, that error being the one
// returned. The result is never nil; its Version is zero when the
// header does not parse.
func parseChunk(data []byte) (*CompressedChunk, int, error) {
	cc := &CompressedChunk{}
	if len(data) < 7 || string(data[:4]) != fileMagic {
		return cc, 0, ErrCorrupt
	}
	if err := supportedVersion(data[4], "chunk file"); err != nil {
		return cc, 0, err
	}
	cc.Version = data[4]
	body, err := data, error(nil)
	if checksummedVersion(cc.Version) {
		if len(data) < 7+crcBytes {
			return cc, 0, ErrTruncatedFile
		}
		err = verifyTrailingCRC(data, "chunk file")
		body = data[:len(data)-crcBytes]
	}
	n := int(binary.LittleEndian.Uint16(data[5:]))
	header := 7 + 4*n
	if len(body) < header {
		return cc, 0, cmp.Or(err, fmt.Errorf("%w: chunk length table", ErrTruncatedFile))
	}
	cc.Columns = make([][]byte, 0, n)
	pos := header
	for i := 0; i < n; i++ {
		l := int(binary.LittleEndian.Uint32(data[7+4*i:]))
		if len(body)-pos < l {
			return cc, header, cmp.Or(err, fmt.Errorf("%w: column %d length %d overruns the chunk", ErrTruncatedFile, i, l))
		}
		cc.Columns = append(cc.Columns, data[pos:pos+l])
		pos += l
	}
	if pos != len(body) {
		return cc, header, cmp.Or(err, fmt.Errorf("%w: %d bytes after the chunk's columns", ErrCorrupt, len(body)-pos))
	}
	return cc, header, err
}

// streamScanner reads a stream from an io.Reader: the header and schema
// when it is made, then one frame per next. It checks every chunk frame
// against the schema and, at the footer, the frame and row counts and
// the stream checksum, so a stream it reads to the end holds exactly
// what its footer claims.
type streamScanner struct {
	r      *bufio.Reader
	ver    byte
	sum    uint32 // running CRC32C over the bytes consumed
	off    int    // bytes consumed
	schema []Column
	chunks int    // chunk frames read
	rows   uint64 // rows in them
	done   bool   // the footer has been read and checked
}

// chunkFrame is one parsed chunk frame of a stream.
type chunkFrame struct {
	at     int // offset of the frame's 'C' tag
	size   int // frame bytes, tag and length included
	header int // the chunk file's header bytes
	cc     *CompressedChunk
}

// newStreamScanner reads a stream's header and schema.
func newStreamScanner(r io.Reader) (*streamScanner, error) {
	s := &streamScanner{r: bufio.NewReader(r)}
	var head [7]byte
	if err := s.readFull(head[:5]); err != nil || string(head[:4]) != streamMagic {
		return nil, ErrCorrupt
	}
	if err := supportedVersion(head[4], "stream"); err != nil {
		return nil, err
	}
	s.ver = head[4]
	if err := s.readFull(head[5:]); err != nil {
		return nil, ErrCorrupt
	}
	// The schema's entries are collected as they arrive and become
	// columns only once all are in, so a column count the stream does
	// not back allocates no more than the stream holds.
	n := int(binary.LittleEndian.Uint16(head[5:]))
	var raw []byte
	var err error
	for i := 0; i < n; i++ {
		at := len(raw)
		if raw, err = s.read(raw, 3); err != nil {
			return nil, ErrCorrupt
		}
		if Type(raw[at]) > maxType {
			return nil, fmt.Errorf("%w: stream schema type %d", ErrCorrupt, raw[at])
		}
		if raw, err = s.read(raw, int(binary.LittleEndian.Uint16(raw[at+1:]))); err != nil {
			return nil, ErrCorrupt
		}
	}
	names := string(raw)
	s.schema = make([]Column, n)
	for i, at := 0, 0; i < n; i++ {
		l := int(binary.LittleEndian.Uint16(raw[at+1:]))
		s.schema[i] = Column{Name: names[at+3 : at+3+l], Type: Type(raw[at])}
		at += 3 + l
	}
	return s, nil
}

// readFull fills buf from the stream and folds it into the running
// checksum — at the parse layer, not on the underlying reader, so
// bufio's readahead does not poison the sum.
func (s *streamScanner) readFull(buf []byte) error {
	if _, err := io.ReadFull(s.r, buf); err != nil {
		return err
	}
	s.sum = crc32.Update(s.sum, castagnoli, buf)
	s.off += len(buf)
	return nil
}

// read appends the stream's next n bytes to dst, growing dst only as
// the bytes arrive: a length field larger than the stream makes it
// allocate no more than the stream holds.
func (s *streamScanner) read(dst []byte, n int) ([]byte, error) {
	for n > 0 {
		k, at := min(n, s.r.Size()), len(dst)
		dst = append(dst, make([]byte, k)...)
		if err := s.readFull(dst[at:]); err != nil {
			return dst, err
		}
		n -= k
	}
	return dst, nil
}

// next reads the next frame. A chunk frame is returned parsed; if its
// chunk file is damaged or does not match the schema, it is returned
// with that error, and the scan may go on to the next frame. The footer
// is checked against the frames read and, in v2, the stream checksum;
// next then returns io.EOF, and keeps returning it. Any other error
// ends the scan.
func (s *streamScanner) next() (*chunkFrame, error) {
	if s.done {
		return nil, io.EOF
	}
	var frame [streamFooterBytes]byte
	if err := s.readFull(frame[:1]); err != nil {
		return nil, ErrCorrupt
	}
	switch frame[0] {
	case 'C':
		ch := &chunkFrame{at: s.off - 1}
		if err := s.readFull(frame[1:streamFrameBytes]); err != nil {
			return nil, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(frame[1:]))
		if n > 1<<31 {
			return nil, ErrCorrupt
		}
		data, err := s.read(make([]byte, 0, min(n, 1<<20)), n)
		if err != nil {
			return nil, fmt.Errorf("%w: chunk payload", ErrTruncatedFile)
		}
		ch.size = streamFrameBytes + n
		s.chunks++
		if ch.cc, ch.header, err = parseChunk(data); err != nil {
			return ch, err
		}
		return ch, s.match(ch.cc)
	case 'E':
		if err := s.readFull(frame[1:]); err != nil {
			return nil, ErrCorrupt
		}
		if checksummedVersion(s.ver) {
			sum := s.sum
			var stored [crcBytes]byte
			if err := s.readFull(stored[:]); err != nil {
				return nil, fmt.Errorf("%w: stream checksum", ErrTruncatedFile)
			}
			if want := binary.LittleEndian.Uint32(stored[:]); want != sum {
				return nil, fmt.Errorf("%w: stream checksum %08x, stored %08x", ErrChecksumMismatch, sum, want)
			}
		}
		chunks, rows := binary.LittleEndian.Uint32(frame[1:]), binary.LittleEndian.Uint64(frame[5:])
		if int64(chunks) != int64(s.chunks) || rows != s.rows {
			return nil, fmt.Errorf("%w: footer counts %d chunks and %d rows, the stream holds %d and %d",
				ErrCorrupt, chunks, rows, s.chunks, s.rows)
		}
		s.done = true
		return nil, io.EOF
	}
	return nil, fmt.Errorf("%w: stream frame tag %#x at offset %d", ErrCorrupt, frame[0], s.off-1)
}

// match checks a chunk's columns against the schema — count, names and
// types — and counts its rows.
func (s *streamScanner) match(cc *CompressedChunk) error {
	if len(cc.Columns) != len(s.schema) {
		return fmt.Errorf("%w: chunk %d has %d columns, the schema %d", ErrCorrupt, s.chunks-1, len(cc.Columns), len(s.schema))
	}
	for i, data := range cc.Columns {
		ix, err := ParseColumnIndex(data)
		if err != nil {
			return err
		}
		if want := s.schema[i]; ix.Name != want.Name || ix.Type != want.Type {
			return fmt.Errorf("%w: chunk %d column %d is %q %s, the schema's %q %s",
				ErrCorrupt, s.chunks-1, i, ix.Name, ix.Type, want.Name, want.Type)
		}
		if i == 0 {
			s.rows += uint64(ix.Rows)
		}
	}
	return nil
}

// rest scans the remaining frames of a stream of size bytes held in
// memory, calling each with every chunk frame and its error; an error
// each returns ends the scan, and so does a broken frame. Bytes after
// the stream's final checksum, which a Reader cannot see, are an error
// here.
func (s *streamScanner) rest(size int, each func(*chunkFrame, error) error) error {
	for {
		ch, err := s.next()
		if err == io.EOF {
			break
		}
		if ch == nil {
			return err
		}
		if err := each(ch, err); err != nil {
			return err
		}
	}
	if s.off != size {
		return fmt.Errorf("%w: %d bytes after the stream's checksum", ErrCorrupt, size-s.off)
	}
	return nil
}
