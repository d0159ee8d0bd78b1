package btrblocks

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// ErrAppendVersion is returned by NewAppendWriter for streams that carry
// no trailing checksum (format v1): appending would have to rewrite a
// footer whose integrity cannot be verified first, so v1 streams must be
// rewritten, not appended to.
var ErrAppendVersion = errors.New("btrblocks: append requires a checksummed (v2) stream")

// NewAppendWriter opens an existing v2 stream for appending: the stream
// is re-read in full through the stream scanner, which checks its
// framing, every chunk against the schema, the footer's counts and the
// trailing CRC32C. The returned Writer is positioned over the old footer
// with the running checksum, chunk count and row count restored — so
// WriteChunk continues the stream exactly as if the original Writer had
// never closed it. Close writes a fresh footer and checksum.
//
// The rewrite is safe against crashes mid-append in the same way the
// original write is not: until the new footer lands, the stream has no
// valid terminator and readers report it corrupt. Callers who need
// atomicity should append to a copy and rename, or use the ingest WAL.
//
// Appending to an intact v1 stream returns ErrAppendVersion; a damaged
// stream (bad framing, checksum mismatch, a footer or chunk that
// contradicts the stream, trailing garbage) returns an error wrapping
// ErrCorrupt.
func NewAppendWriter(rw io.ReadWriteSeeker, opt *Options) (*Writer, error) {
	if _, err := rw.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	data, err := io.ReadAll(rw)
	if err != nil {
		return nil, err
	}
	s, err := newStreamScanner(bytes.NewReader(data))
	if err == nil {
		err = s.rest(len(data), func(_ *chunkFrame, err error) error { return err })
	}
	if err != nil {
		return nil, err
	}
	if !checksummedVersion(s.ver) {
		return nil, fmt.Errorf("%w: stream is format v%d", ErrAppendVersion, s.ver)
	}

	// The writer resumes over the old footer: its running CRC covers
	// everything before the 'E' tag, and the first WriteChunk (or Close)
	// overwrites the footer in place. The replacement is always at least
	// as long as the 17 bytes it overwrites, so no stale tail survives a
	// completed Close.
	off := len(data) - streamFooterBytes - crcBytes
	if _, err := rw.Seek(int64(off), io.SeekStart); err != nil {
		return nil, err
	}
	wopt := opt
	if v, err := opt.formatVersionOf(); err != nil {
		return nil, err
	} else if v != s.ver {
		// The appended chunks must carry the stream's version; clone the
		// options rather than mutating the caller's.
		o := Options{}
		if opt != nil {
			o = *opt
		}
		o.FormatVersion = int(s.ver)
		wopt = &o
	}
	return &Writer{
		w:      bufio.NewWriter(rw),
		opt:    wopt,
		schema: s.schema,
		ver:    s.ver,
		sum:    crc32c(data[:off]),
		chunks: s.chunks,
		rows:   s.rows,
	}, nil
}
