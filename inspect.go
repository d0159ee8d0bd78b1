package btrblocks

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"btrblocks/internal/core"
)

// This file implements file introspection: laying out a compressed
// column, chunk, or stream file as a structured tree — container
// framing, per-block scheme tags, NULL-bitmap sizes, payload sizes, and
// the full cascade structure — without decompressing any payload. The
// framing comes from the container parsers (container.go), so Inspect
// accepts exactly the files the decoders do. The layout is the ground
// truth behind FORMAT.md; `btrblocks inspect` renders it.
//
// Byte accounting is exact: every FileInfo section sums to the file
// size (see FileInfo.AccountedBytes), which the tests assert on every
// corpus file.

// SchemeNode describes one compressed stream of a block's cascade tree:
// its scheme, value count, byte breakdown, and sub-streams. It is an
// alias of the core layout walker's node type.
type SchemeNode = core.Layout

// FileKind identifies which container format a file uses.
type FileKind uint8

// Container kinds distinguished by Inspect.
const (
	// FileKindColumn is a single-column file ("BTRC", CompressColumn).
	FileKindColumn FileKind = iota
	// FileKindChunk is a multi-column chunk file ("BTRB", EncodeFile).
	FileKindChunk
	// FileKindStream is a framed multi-chunk stream ("BTRS", Writer).
	FileKindStream
)

// String returns the kind name.
func (k FileKind) String() string {
	switch k {
	case FileKindColumn:
		return "column"
	case FileKindChunk:
		return "chunk"
	case FileKindStream:
		return "stream"
	}
	return "invalid"
}

// BlockInfo describes one block of a compressed column.
type BlockInfo struct {
	// Offset is the block's byte offset from the start of the file;
	// Size is its total encoded size including the block header.
	Offset int
	Size   int
	// Rows is the block's value count.
	Rows int
	// NullCount is the number of NULL positions recorded in the block's
	// bitmap; NullBytes is the serialized bitmap size (0 when the block
	// has no NULLs).
	NullCount int
	NullBytes int
	// DataBytes is the size of the block's compressed data stream, and
	// Data is that stream's cascade layout tree.
	DataBytes int
	Data      *SchemeNode
	// ChecksumBytes is the trailing per-block CRC32C (4 in format v2,
	// 0 in v1), included in Size. Inspect verifies it.
	ChecksumBytes int
}

// blockHeaderBytes is the fixed per-block framing: rows:u32 nullLen:u32
// dataLen:u32.
const blockHeaderBytes = 12

// ColumnInfo describes one compressed column within a file.
type ColumnInfo struct {
	Name string
	Type Type
	// Offset is the column file's byte offset from the start of the
	// containing file (0 for a standalone column file); Size is its
	// total size; HeaderBytes is the column header (magic, version,
	// type, name, block count).
	Offset      int
	Size        int
	HeaderBytes int
	// Rows and NullCount sum over all blocks.
	Rows      int
	NullCount int
	Blocks    []*BlockInfo
	// ChecksumBytes is the column file's trailing whole-file CRC32C
	// (4 in format v2, 0 in v1), included in Size. Inspect verifies it.
	ChecksumBytes int
}

// ChunkInfo describes one chunk of a stream file.
type ChunkInfo struct {
	// Offset and Size cover the chunk including its stream framing;
	// FrameBytes is that framing ('C' tag + length), and HeaderBytes is
	// the embedded chunk file's header (magic, version, column count,
	// per-column length table).
	Offset      int
	Size        int
	FrameBytes  int
	HeaderBytes int
	// ChecksumBytes is the embedded chunk file's trailing CRC32C
	// (4 in format v2, 0 in v1).
	ChecksumBytes int
	Columns       []*ColumnInfo
}

// FileInfo is the parsed layout of a compressed file.
type FileInfo struct {
	// Kind is the container format, detected from the magic bytes.
	Kind FileKind
	// Size is the total file size in bytes.
	Size int
	// HeaderBytes is the container header: 0 for a column file (the
	// header belongs to Columns[0]), the chunk header plus length table
	// for a chunk file, and the stream header including the schema for
	// a stream file. FooterBytes is the stream footer (0 otherwise).
	HeaderBytes int
	FooterBytes int
	// Version is the container's format version (1 = legacy, 2 =
	// checksummed).
	Version int
	// ChecksumBytes is the container-level trailing CRC32C: 4 for a v2
	// chunk or stream file, 0 otherwise (a column file's CRC is counted
	// on its ColumnInfo). Inspect verifies it.
	ChecksumBytes int
	// Columns holds the file's columns: exactly one for a column file,
	// all columns for a chunk file, nil for a stream file (see Chunks).
	Columns []*ColumnInfo
	// Chunks holds a stream file's chunks in order.
	Chunks []*ChunkInfo
	// Schema holds a stream file's column names and types.
	Schema []Column
}

// Inspect parses a compressed file — column ("BTRC"), chunk ("BTRB") or
// stream ("BTRS") — into its layout tree without decompressing any
// payload. The returned FileInfo accounts for every byte of the file:
// AccountedBytes() == Size, or Inspect returns ErrCorrupt.
func Inspect(data []byte) (*FileInfo, error) {
	kind, ok := SniffKind(data)
	if !ok {
		return nil, ErrCorrupt
	}
	fi := &FileInfo{Kind: kind, Size: len(data)}
	switch kind {
	case FileKindColumn:
		ix, err := ParseColumnIndex(data)
		if err != nil {
			return nil, err
		}
		col, err := columnLayout(ix, data, 0)
		if err != nil {
			return nil, err
		}
		fi.Version, fi.Columns = ix.Version, []*ColumnInfo{col}
	case FileKindChunk:
		cc, header, err := parseChunk(data)
		if err != nil {
			return nil, err
		}
		fi.Version, fi.HeaderBytes, fi.ChecksumBytes = int(cc.Version), header, checksumBytes(cc.Version)
		if fi.Columns, err = chunkLayout(cc, header); err != nil {
			return nil, err
		}
	case FileKindStream:
		s, err := newStreamScanner(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		fi.Version, fi.HeaderBytes, fi.Schema = int(s.ver), s.off, s.schema
		err = s.rest(len(data), func(ch *chunkFrame, err error) error {
			if err != nil {
				return err
			}
			at := ch.at + streamFrameBytes
			c := &ChunkInfo{Offset: ch.at, Size: ch.size, FrameBytes: streamFrameBytes,
				HeaderBytes: ch.header, ChecksumBytes: checksumBytes(ch.cc.Version)}
			c.Columns, err = chunkLayout(ch.cc, at+ch.header)
			fi.Chunks = append(fi.Chunks, c)
			return err
		})
		if err != nil {
			return nil, err
		}
		fi.FooterBytes, fi.ChecksumBytes = streamFooterBytes, checksumBytes(s.ver)
	}
	return fi, nil
}

// checksumBytes is the size of a container's trailing CRC32C in format
// version v.
func checksumBytes(v byte) int {
	if checksummedVersion(v) {
		return crcBytes
	}
	return 0
}

// chunkLayout lays out a chunk's columns; at is the offset of its first
// column in the file.
func chunkLayout(cc *CompressedChunk, at int) ([]*ColumnInfo, error) {
	cols := make([]*ColumnInfo, len(cc.Columns))
	for i, data := range cc.Columns {
		ix, err := ParseColumnIndex(data)
		if err != nil {
			return nil, err
		}
		if cols[i], err = columnLayout(ix, data, at); err != nil {
			return nil, err
		}
		at += len(data)
	}
	return cols, nil
}

// columnLayout lays out the blocks of a parsed column file located at
// offset at of the file: each block's NULL count and cascade tree, with
// every checksum verified.
func columnLayout(ix *ColumnIndex, data []byte, at int) (*ColumnInfo, error) {
	c := &ColumnInfo{Name: ix.Name, Type: ix.Type, Offset: at, Size: len(data), HeaderBytes: 8 + len(ix.Name) + 4,
		Rows: ix.Rows, ChecksumBytes: checksumBytes(byte(ix.Version))}
	for b, ref := range ix.Blocks {
		blk, err := ix.openBlock(data, b, &core.Config{}, nil)
		if err != nil {
			return nil, err
		}
		bi := &BlockInfo{Offset: at + ref.Offset, Size: ref.CompressedBytes() + c.ChecksumBytes, Rows: ref.Rows,
			NullBytes: ref.NullBytes, DataBytes: ref.DataBytes, ChecksumBytes: c.ChecksumBytes}
		if blk.nulls != nil {
			bi.NullCount = blk.nulls.Cardinality()
		}
		node, used, err := core.InspectStream(streamKind(ix.Type), blk.stream)
		if err != nil {
			return nil, err
		}
		if used != ref.DataBytes || node.Values != ref.Rows {
			return nil, ErrCorrupt
		}
		bi.Data = node
		c.NullCount += bi.NullCount
		c.Blocks = append(c.Blocks, bi)
	}
	if ix.Checksummed() {
		if err := verifyTrailingCRC(data, "column file"); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// streamKind maps a column type to its core stream kind.
func streamKind(t Type) core.Kind {
	switch t {
	case TypeInt:
		return core.KindInt
	case TypeInt64:
		return core.KindInt64
	case TypeDouble:
		return core.KindDouble
	default:
		return core.KindString
	}
}

// AccountedBytes sums every section of the layout: container header and
// footer, per-column headers, block framing, NULL bitmaps, and every
// scheme node's header and payload bytes. A well-formed file satisfies
// AccountedBytes() == Size; Inspect guarantees it for the layouts it
// returns.
func (f *FileInfo) AccountedBytes() int {
	total := f.HeaderBytes + f.FooterBytes + f.ChecksumBytes
	for _, c := range f.Columns {
		total += columnAccountedBytes(c)
	}
	for _, ch := range f.Chunks {
		total += ch.FrameBytes + ch.HeaderBytes + ch.ChecksumBytes
		for _, c := range ch.Columns {
			total += columnAccountedBytes(c)
		}
	}
	return total
}

func columnAccountedBytes(c *ColumnInfo) int {
	total := c.HeaderBytes + c.ChecksumBytes
	for _, b := range c.Blocks {
		total += blockHeaderBytes + b.NullBytes + b.ChecksumBytes
		b.Data.Walk(func(n *SchemeNode, _ int) {
			total += n.HeaderBytes + n.PayloadBytes
		})
	}
	return total
}

// eachColumn visits every column in the file, across chunks for stream
// files.
func (f *FileInfo) eachColumn(fn func(*ColumnInfo)) {
	for _, c := range f.Columns {
		fn(c)
	}
	for _, ch := range f.Chunks {
		for _, c := range ch.Columns {
			fn(c)
		}
	}
}

// Rows returns the total row count of the file's first column (all
// columns of a chunk have equal length; a stream sums across chunks).
func (f *FileInfo) Rows() int {
	rows := 0
	if len(f.Columns) > 0 {
		return f.Columns[0].Rows
	}
	for _, ch := range f.Chunks {
		if len(ch.Columns) > 0 {
			rows += ch.Columns[0].Rows
		}
	}
	return rows
}

// RenderTree writes the full layout tree — containers, columns, blocks,
// and per-block cascade structure with byte counts — as indented text.
func (f *FileInfo) RenderTree(w io.Writer) {
	fmt.Fprintf(w, "%s file: %d bytes", f.Kind, f.Size)
	switch f.Kind {
	case FileKindColumn:
		fmt.Fprintf(w, "\n")
	case FileKindChunk:
		fmt.Fprintf(w, ", %d columns, header %dB\n", len(f.Columns), f.HeaderBytes)
	case FileKindStream:
		fmt.Fprintf(w, ", %d chunks, header %dB, footer %dB\n", len(f.Chunks), f.HeaderBytes, f.FooterBytes)
		fmt.Fprintf(w, "schema:")
		for _, col := range f.Schema {
			fmt.Fprintf(w, " %s:%s", col.Name, col.Type)
		}
		fmt.Fprintf(w, "\n")
	}
	for _, c := range f.Columns {
		renderColumn(w, c, "")
	}
	for i, ch := range f.Chunks {
		fmt.Fprintf(w, "chunk %d: offset %d, %d bytes (frame %dB, header %dB), %d columns\n",
			i, ch.Offset, ch.Size, ch.FrameBytes, ch.HeaderBytes, len(ch.Columns))
		for _, c := range ch.Columns {
			renderColumn(w, c, "  ")
		}
	}
}

func renderColumn(w io.Writer, c *ColumnInfo, indent string) {
	fmt.Fprintf(w, "%scolumn %q %s: offset %d, %d bytes (header %dB), %d rows, %d blocks",
		indent, c.Name, c.Type, c.Offset, c.Size, c.HeaderBytes, c.Rows, len(c.Blocks))
	if c.NullCount > 0 {
		fmt.Fprintf(w, ", %d nulls", c.NullCount)
	}
	fmt.Fprintf(w, "\n")
	for i, b := range c.Blocks {
		fmt.Fprintf(w, "%s  block %d: offset %d, %d bytes (header %dB, nulls %dB, data %dB), %d rows",
			indent, i, b.Offset, b.Size, blockHeaderBytes, b.NullBytes, b.DataBytes, b.Rows)
		if b.NullCount > 0 {
			fmt.Fprintf(w, ", %d nulls", b.NullCount)
		}
		fmt.Fprintf(w, "\n")
		b.Data.Walk(func(n *SchemeNode, level int) {
			fmt.Fprintf(w, "%s  %s", indent, spaces(2*(level+1)))
			if n.Role != "" {
				fmt.Fprintf(w, "%s: ", n.Role)
			}
			fmt.Fprintf(w, "%s n=%d %dB (header %dB, payload %dB)", n.Code, n.Values, n.Bytes, n.HeaderBytes, n.PayloadBytes)
			if n.Detail != "" {
				fmt.Fprintf(w, " — %s", n.Detail)
			}
			fmt.Fprintf(w, "\n")
		})
	}
}

func spaces(n int) string {
	const pad = "                                                                "
	for n > len(pad) {
		n = len(pad)
	}
	return pad[:n]
}

// FileStats aggregates a FileInfo into summary counters: where the bytes
// went (framing, NULL bitmaps, scheme headers, payloads) and which
// schemes were chosen how often — the on-disk analogue of the
// compression telemetry.
type FileStats struct {
	Size    int
	Rows    int
	Columns int
	Chunks  int
	Blocks  int
	Nulls   int
	// FramingBytes counts container/column/block headers and footers;
	// NullBytes the serialized NULL bitmaps; ChecksumBytes the CRC32C
	// trailers (0 for v1 files); SchemeHeaderBytes and
	// SchemePayloadBytes the scheme-node breakdown.
	FramingBytes       int
	NullBytes          int
	ChecksumBytes      int
	SchemeHeaderBytes  int
	SchemePayloadBytes int
	// RootSchemes counts blocks by column type and root scheme
	// (type → scheme → blocks). StreamSchemes counts every cascade
	// stream by kind and scheme, and StreamSchemeBytes sums each
	// scheme's own bytes (header + payload, sub-streams excluded).
	RootSchemes       map[string]map[string]int
	StreamSchemes     map[string]map[string]int
	StreamSchemeBytes map[string]map[string]int
}

// Stats aggregates the layout into summary counters.
func (f *FileInfo) Stats() *FileStats {
	s := &FileStats{
		Size:              f.Size,
		Rows:              f.Rows(),
		Chunks:            len(f.Chunks),
		FramingBytes:      f.HeaderBytes + f.FooterBytes,
		ChecksumBytes:     f.ChecksumBytes,
		RootSchemes:       make(map[string]map[string]int),
		StreamSchemes:     make(map[string]map[string]int),
		StreamSchemeBytes: make(map[string]map[string]int),
	}
	for _, ch := range f.Chunks {
		s.FramingBytes += ch.FrameBytes + ch.HeaderBytes
		s.ChecksumBytes += ch.ChecksumBytes
	}
	f.eachColumn(func(c *ColumnInfo) {
		s.Columns++
		s.Nulls += c.NullCount
		s.FramingBytes += c.HeaderBytes
		s.ChecksumBytes += c.ChecksumBytes
		for _, b := range c.Blocks {
			s.Blocks++
			s.FramingBytes += blockHeaderBytes
			s.NullBytes += b.NullBytes
			s.ChecksumBytes += b.ChecksumBytes
			statsBump(s.RootSchemes, c.Type.String(), b.Data.Code.String(), 1)
			b.Data.Walk(func(n *SchemeNode, _ int) {
				s.SchemeHeaderBytes += n.HeaderBytes
				s.SchemePayloadBytes += n.PayloadBytes
				statsBump(s.StreamSchemes, n.Kind.String(), n.Code.String(), 1)
				statsBump(s.StreamSchemeBytes, n.Kind.String(), n.Code.String(), n.HeaderBytes+n.PayloadBytes)
			})
		}
	})
	return s
}

func statsBump(m map[string]map[string]int, outer, inner string, by int) {
	mm := m[outer]
	if mm == nil {
		mm = make(map[string]int)
		m[outer] = mm
	}
	mm[inner] += by
}

// Render writes the stats as a text report.
func (s *FileStats) Render(w io.Writer) {
	fmt.Fprintf(w, "size: %d bytes, %d rows, %d columns, %d blocks", s.Size, s.Rows, s.Columns, s.Blocks)
	if s.Chunks > 0 {
		fmt.Fprintf(w, ", %d chunks", s.Chunks)
	}
	if s.Nulls > 0 {
		fmt.Fprintf(w, ", %d nulls", s.Nulls)
	}
	fmt.Fprintf(w, "\n")
	fmt.Fprintf(w, "byte breakdown: framing %d, null bitmaps %d, checksums %d, scheme headers %d, payloads %d\n",
		s.FramingBytes, s.NullBytes, s.ChecksumBytes, s.SchemeHeaderBytes, s.SchemePayloadBytes)
	renderCountTable(w, "root schemes (blocks, by column type)", s.RootSchemes, nil)
	renderCountTable(w, "cascade streams (count and bytes, by stream kind)", s.StreamSchemes, s.StreamSchemeBytes)
}

func renderCountTable(w io.Writer, title string, counts, bytes map[string]map[string]int) {
	if len(counts) == 0 {
		return
	}
	fmt.Fprintf(w, "%s:\n", title)
	outer := make([]string, 0, len(counts))
	for k := range counts {
		outer = append(outer, k)
	}
	sort.Strings(outer)
	for _, o := range outer {
		fmt.Fprintf(w, "  %s:\n", o)
		inner := make([]string, 0, len(counts[o]))
		for k := range counts[o] {
			inner = append(inner, k)
		}
		sort.Slice(inner, func(i, j int) bool {
			if counts[o][inner[i]] != counts[o][inner[j]] {
				return counts[o][inner[i]] > counts[o][inner[j]]
			}
			return inner[i] < inner[j]
		})
		for _, k := range inner {
			fmt.Fprintf(w, "    %-14s %6d", k, counts[o][k])
			if bytes != nil {
				fmt.Fprintf(w, " %10dB", bytes[o][k])
			}
			fmt.Fprintf(w, "\n")
		}
	}
}
