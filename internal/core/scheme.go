package core

import (
	"encoding/binary"
	"math/rand"

	"btrblocks/coldata"
	"btrblocks/internal/roaring"
	"btrblocks/internal/stats"
)

// The scheme table. Everything one scheme code means — its encoder, its
// decoder, its compressed-domain predicate and aggregate paths, its layout
// walker — lives in one file (plain.go, onevalue.go, rle.go, dict.go,
// frequency.go, fastbp.go, fastpfor.go, pde.go, fsst.go) as one entry per
// column kind the scheme serves. A kind holds its entries by code; the
// cascade driver, the decoders, the kernels and the walker find the entry
// through the stream head, which is parsed and capped once, in head.

// numScheme is a numeric kind's entry for one scheme. Its functions are
// bound to the kind; each is called per stream, never per value.
type numScheme[T numeric, K stats.Key] struct {
	code Code
	// viable is the statistics filter of §3 (step 2) on a built profile;
	// plain, which is not in the pool, has none.
	viable func(p *stats.Profile[K]) bool
	// size, where set, is the encoded size the profile alone fixes: the
	// picker takes such a scheme (OneValue) without a sample trial wherever
	// it is viable, and CompressAs refuses it elsewhere.
	size func(p *stats.Profile[K]) int
	// encode appends src encoded, everything after the tag; p is src's
	// profile, possibly not built yet.
	encode func(dst []byte, src []T, p *stats.Profile[K], cfg *Config, depth int, rng *rand.Rand) []byte
	// decode appends the n values of src (the whole stream, its head
	// parsed) to dst and returns the bytes the stream takes.
	decode func(dst []T, src []byte, n int, cfg *Config) ([]T, int, error)
	// scan and aggregate, where set, answer Select/Count and Aggregate in
	// the compressed domain; elsewhere the stream is decoded and filtered
	// or folded.
	scan      func(src []byte, n int, m Matcher[T], base uint32, out *roaring.Bitmap, st *SelectStats, cfg *Config) (count, used int, err error)
	aggregate func(src []byte, n int, acc Folder[T], st *SelectStats, cfg *Config) (int, error)
	// runs, where set (RLE), decodes src's runs without expanding them; the
	// fused Dict+RLE path of the string dictionary reads its codes so.
	runs func(src []byte, n int, cfg *Config) (values []T, lengths []int32, used int, err error)
	// walk fills in the layout of src past its head; l arrives with the
	// code, kind, role, Values and the head's five header bytes.
	walk func(l *Layout, src []byte) error
}

// strScheme is the string kind's entry for one scheme. A string stream is
// parsed into a StringBlock and finished by one of two finishers.
type strScheme struct {
	code   Code
	viable func(p *stats.StringProfile) bool
	size   func(p *stats.StringProfile) int
	encode func(dst []byte, src coldata.Strings, p *stats.StringProfile, cfg *Config, depth int, rng *rand.Rand) []byte
	// parse validates src (its head parsed into b.rows) into b, returned
	// with the bytes src takes, and on error too, for release. forViews
	// copies out of src whatever views will point into, as they outlive it.
	parse func(b StringBlock, src []byte, cfg *Config, forViews bool) (StringBlock, int, error)
	scan  func(src []byte, n int, p *StringPred, base uint32, out *roaring.Bitmap, st *SelectStats, cfg *Config) (count, used int, err error)
	// views fills one view per row and returns the pool they point into;
	// appendTo appends the rows' bytes to data, writes each row's end into
	// ends (counting on from end) and returns the grown data.
	views    func(b StringBlock, views []coldata.View) ([]byte, error)
	appendTo func(b StringBlock, data []byte, ends []uint32, end uint32) ([]byte, error)
	walk     func(l *Layout, src []byte) error
}

// head parses the prefix every stream of every kind starts with, tag:u8
// n:u32. The tag must name an entry of the kind's table, and n may not
// exceed the decode cap: this is the one place a value count is checked
// against it, so no scheme's decoder, kernel or walker can exceed it.
func head[E any](table *[numCodes]*E, src []byte, cfg *Config) (e *E, n int, err error) {
	if len(src) < 5 || src[0] >= byte(numCodes) || table[src[0]] == nil {
		return nil, 0, ErrCorrupt
	}
	if n = int(binary.LittleEndian.Uint32(src[1:])); n > cfg.maxN() {
		return nil, 0, ErrCorrupt
	}
	return table[src[0]], n, nil
}

// leafDecode is the decode of a scheme whose body after the tag is a codec
// package's own format (FastBP, FastPFOR): fast decodes it, or scalar
// under ScalarDecode, and the package's errors become ErrCorrupt.
func leafDecode[T numeric](fast, scalar func([]T, []byte) ([]T, int, error)) func([]T, []byte, int, *Config) ([]T, int, error) {
	return func(dst []T, src []byte, _ int, cfg *Config) ([]T, int, error) {
		decode := fast
		if cfg.ScalarDecode {
			decode = scalar
		}
		out, used, err := decode(dst, src[1:])
		if err != nil {
			return dst, 0, ErrCorrupt
		}
		return out, 1 + used, nil
	}
}

// subCount reads the u32 that follows the head of an RLE or Dict stream —
// its run count or its number of distinct values — which cannot exceed
// the stream's n.
func subCount(src []byte, n int) (int, error) {
	if len(src) < 9 {
		return 0, ErrCorrupt
	}
	if k := int(binary.LittleEndian.Uint32(src[5:])); k <= n {
		return k, nil
	}
	return 0, ErrCorrupt
}
