package btrblocks

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// This file holds the integrity primitives of format version 2: every
// block of a column file is followed by a CRC32C (Castagnoli) of its
// encoded bytes, and every container — column file, chunk file, stream —
// ends with a CRC32C of everything before it. Version-1 files carry no
// checksums and keep reading unchanged; see FORMAT.md for the exact
// layout and compatibility rules.

// Sentinel errors of the integrity layer. Both wrap ErrCorrupt, so
// errors.Is(err, ErrCorrupt) keeps matching existing handling while
// errors.Is(err, ErrChecksumMismatch) / errors.Is(err, ErrTruncatedFile)
// distinguish the failure mode.
var (
	// ErrChecksumMismatch is returned when a stored CRC32C does not match
	// the bytes it covers: the data was altered after it was written.
	ErrChecksumMismatch = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	// ErrTruncatedFile is returned when a declared length points past the
	// end of the available bytes: the file was cut short.
	ErrTruncatedFile = fmt.Errorf("%w: truncated", ErrCorrupt)
)

// crcBytes is the serialized size of one CRC32C value.
const crcBytes = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc32c returns the CRC32C (Castagnoli) checksum of data.
func crc32c(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// appendCRC32C appends the little-endian CRC32C of everything already in
// out — the file-footer convention of format v2.
func appendCRC32C(out []byte) []byte {
	return binary.LittleEndian.AppendUint32(out, crc32c(out))
}

// verifyTrailingCRC checks that the last four bytes of data hold the
// CRC32C of everything before them. what names the container for the
// error message.
func verifyTrailingCRC(data []byte, what string) error {
	if len(data) < crcBytes {
		return fmt.Errorf("%w: %s shorter than its checksum", ErrTruncatedFile, what)
	}
	body := data[:len(data)-crcBytes]
	stored := binary.LittleEndian.Uint32(data[len(body):])
	if got := crc32c(body); got != stored {
		return fmt.Errorf("%w: %s checksum %08x, stored %08x", ErrChecksumMismatch, what, got, stored)
	}
	return nil
}

// checksummedVersion reports whether format version v carries block and
// file checksums.
func checksummedVersion(v byte) bool { return v >= formatVersion2 }

// formatVersionOf validates the Options.FormatVersion knob and resolves
// the version byte new files are written with.
func (o *Options) formatVersionOf() (byte, error) {
	if o == nil || o.FormatVersion == 0 {
		return formatVersion, nil
	}
	if o.FormatVersion < 0 || o.FormatVersion > formatVersion {
		return 0, fmt.Errorf("btrblocks: unsupported format version %d", o.FormatVersion)
	}
	return byte(o.FormatVersion), nil
}
