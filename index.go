package btrblocks

import (
	"context"
	"fmt"
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
