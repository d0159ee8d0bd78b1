package btrblocks

import (
	"context"
	"encoding/binary"
	"fmt"

	"btrblocks/internal/core"
)

// This file exposes block-granular access to column files. A ColumnIndex
// is built from the file's headers alone — no payload is decompressed —
// and locates every block so callers can decode, cache and serve blocks
// independently. This is what a networked block server needs: random
// access at block granularity over the one-file-per-column S3 layout of
// §6.7, without materializing whole columns.

// BlockRef locates one block inside a column file without decoding it.
// All offsets are relative to the start of the file.
type BlockRef struct {
	// Offset is the byte offset of the block header (rows:u32 nullLen:u32).
	Offset int
	// StartRow is the block's first row within the column.
	StartRow int
	// Rows is the number of values in the block.
	Rows int
	// NullBytes is the encoded NULL bitmap size (0 = block has no NULLs).
	NullBytes int
	// DataBytes is the compressed data stream size.
	DataBytes int
	// Scheme is the block's root encoding scheme.
	Scheme Scheme
	// Checksum is the stored CRC32C over the block's bytes (header, NULL
	// bitmap and data stream). Zero and meaningless for v1 files — check
	// ColumnIndex.Checksummed.
	Checksum uint32
}

// NullOffset returns the offset of the block's NULL bitmap (meaningless
// when NullBytes is 0).
func (b BlockRef) NullOffset() int { return b.Offset + 8 }

// DataOffset returns the offset of the block's compressed data stream.
func (b BlockRef) DataOffset() int { return b.Offset + 8 + b.NullBytes + 4 }

// End returns the offset one past the block's last byte.
func (b BlockRef) End() int { return b.DataOffset() + b.DataBytes }

// CompressedBytes returns the block's total on-disk footprint: header,
// NULL bitmap and data stream.
func (b BlockRef) CompressedBytes() int { return b.End() - b.Offset }

// ColumnIndex is the parsed block directory of a column file.
type ColumnIndex struct {
	Name string
	Type Type
	// Version is the file's format version (1 = legacy, 2 = checksummed).
	Version int
	// Rows is the column's total row count (sum over blocks).
	Rows int
	// Blocks lists the column's blocks in order.
	Blocks []BlockRef
}

// Checksummed reports whether the file carries per-block and whole-file
// CRC32C checksums (format v2).
func (ix *ColumnIndex) Checksummed() bool { return checksummedVersion(byte(ix.Version)) }

// VerifyBlock recomputes block b's CRC32C over data — the same buffer the
// index was parsed from — and compares it against the stored checksum.
// It returns nil for v1 files (nothing to verify) and an error wrapping
// ErrChecksumMismatch when the block's bytes no longer match.
func (ix *ColumnIndex) VerifyBlock(data []byte, b int) error {
	if !ix.Checksummed() {
		return nil
	}
	if b < 0 || b >= len(ix.Blocks) {
		return fmt.Errorf("btrblocks: block %d out of range [0,%d)", b, len(ix.Blocks))
	}
	ref := ix.Blocks[b]
	if ref.End() > len(data) {
		return ErrTruncatedFile
	}
	if got := crc32c(data[ref.Offset:ref.End()]); got != ref.Checksum {
		return fmt.Errorf("%w: column %q block %d: computed %08x, stored %08x",
			ErrChecksumMismatch, ix.Name, b, got, ref.Checksum)
	}
	return nil
}

// VerifyFile verifies every block checksum and the whole-file checksum of
// the column file the index was parsed from. Nil for v1 files.
func (ix *ColumnIndex) VerifyFile(data []byte) error {
	if !ix.Checksummed() {
		return nil
	}
	for b := range ix.Blocks {
		if err := ix.VerifyBlock(data, b); err != nil {
			return err
		}
	}
	return verifyTrailingCRC(data, "column file")
}

// ParseColumnIndex walks a column file's framing and returns its block
// directory without decompressing any payload. Like Inspect, it verifies
// that the framing accounts for every byte of the file.
func ParseColumnIndex(data []byte) (*ColumnIndex, error) {
	if len(data) < 12 || string(data[:4]) != columnMagic {
		return nil, ErrCorrupt
	}
	if !supportedVersion(data[4]) {
		return nil, fmt.Errorf("btrblocks: unsupported column file version %d", data[4])
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
	prealloc := blockCount
	if max := len(data) / 12; prealloc > max {
		prealloc = max
	}
	ix.Blocks = make([]BlockRef, 0, prealloc)
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

// DecompressBlock decodes block b of the column file the index was parsed
// from, returning it as a standalone Column whose NULL mask is rebased to
// the block (position 0 is the block's first row). String blocks are
// materialized into an owned vector, so the result does not alias data.
// When opt.Telemetry is set, the decode is counted on the recorder.
func (ix *ColumnIndex) DecompressBlock(data []byte, b int, opt *Options) (Column, error) {
	if b < 0 || b >= len(ix.Blocks) {
		return Column{}, fmt.Errorf("btrblocks: block %d out of range [0,%d)", b, len(ix.Blocks))
	}
	d := newColumnDecode(ix, data, b, b+1, false)
	if err := decodeColumns(context.Background(), []*columnDecode{d}, opt, "", false); err != nil {
		return Column{}, err
	}
	return d.col, nil
}
