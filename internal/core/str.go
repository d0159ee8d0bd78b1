package core

import (
	"math/rand"

	"btrblocks/coldata"
	"btrblocks/internal/sample"
)

// StringKind describes string columns to the cascade driver, the decoders
// and the scan kernel, as Numeric does numeric ones; its one instance is
// String.
type StringKind struct {
	kindInfo
	schemes [numCodes]*strScheme // the scheme table, by code
}

// String describes string columns — the string branch of Figure 3: One
// Value, Dictionary (optionally with an FSST-compressed pool), direct
// FSST, or Uncompressed.
var String = &StringKind{kindInfo: kindInfo{kind: KindString, allow: func(c *Config) []Code { return c.StringSchemes }}}

// The pool is filled here, as the numeric ones are: its entries refer to String.
func init() {
	String.schemes[CodeUncompressed] = stringPlain
	for _, e := range []*strScheme{stringOneValue, stringDict, stringFSST} {
		String.schemes[e.code] = e
		String.pool = append(String.pool, e.code)
	}
}

// Compress compresses a block of strings into a self-describing stream.
func (t *StringKind) Compress(dst []byte, src coldata.Strings, cfg *Config) []byte {
	return compressRoot(t, dst, src, cfg)
}

// Choose reports the scheme the selection algorithm picks for src and its
// estimated ratio.
func (t *StringKind) Choose(src coldata.Strings, cfg *Config) (Code, float64) {
	return choose(t, src, cfg)
}

// CompressAs forces a specific root scheme, as Numeric.CompressAs does;
// nil if the scheme does not apply to the data.
func (t *StringKind) CompressAs(dst []byte, src coldata.Strings, code Code, cfg *Config) []byte {
	return compressAs(t, dst, src, code, cfg)
}

func (t *StringKind) profiles(s *Scratch) *[]*strProfile { return &s.strs }

func (t *StringKind) size(src coldata.Strings) (int, int) { return src.Len(), src.TotalBytes() }

func (t *StringKind) sample(src coldata.Strings, s sample.Strategy, rng *rand.Rand) coldata.Strings {
	return sample.Strings(src, s, rng)
}

func (t *StringKind) profile(p *strProfile, src coldata.Strings, cfg *Config) {
	p.Reset()
	p.src, p.cfg = src, cfg
}

func (t *StringKind) viable(code Code, p *strProfile) bool { return t.schemes[code].viable(p) }

func (t *StringKind) fixed(code Code, p *strProfile) (int, bool) {
	if size := t.schemes[code].size; size != nil {
		return size(p.shape()), true
	}
	return 0, false
}

func (t *StringKind) encodeAs(dst []byte, src coldata.Strings, p *strProfile, code Code, cfg *Config, depth int, rng *rand.Rand) []byte {
	return t.schemes[code].encode(append(dst, byte(code)), src, p, cfg, depth, rng)
}

// Decompress decodes one string stream into a no-copy view column,
// returning the views and the number of input bytes consumed.
func (t *StringKind) Decompress(src []byte, cfg *Config) (coldata.StringViews, int, error) {
	b, used, err := t.parse(src, cfg, true)
	if err != nil {
		return coldata.StringViews{}, 0, err
	}
	// The views finisher: §5 views over one pool; no row is copied.
	defer b.release(cfg.Scratch)
	views := make([]coldata.View, b.rows)
	pool, err := b.scheme.views(b, views)
	if err != nil {
		return coldata.StringViews{}, 0, err
	}
	return coldata.StringViews{Views: views, Pool: pool}, used, nil
}

// StringBlock is one string stream parsed and validated but not yet
// expanded into rows — the half of decoding the view decoder and the
// materialising decoder share. Its integer arrays are borrowed from the
// Scratch it was parsed with; the finisher (views or AppendTo) consumes
// the block and hands them to the Scratch it is given, which may be
// another worker's at a later time, never a concurrent one.
type StringBlock struct {
	scheme *strScheme
	rows   int
	size   int // decoded bytes of all rows (not counted for a Dict block parsed for views)
	// pool is where the rows' bytes are: an Uncompressed payload (indexed
	// by offsets, rows+1 little-endian words still in the stream), the one
	// value, or a dictionary's strings (indexed by starts). An FSST block has
	// blob and lengths in its place: the rows are decoded only by the
	// finisher, straight into where they are wanted.
	pool, offsets []byte
	blob          fsstBlob
	lengths       []int32
	// A Dict block's entry c is pool[starts[c]:starts[c+1]]; it has one code
	// per row, or — fused Dict+RLE (§5) — one per run of runLens rows.
	starts, codes, runLens []int32
}

// Parse parses one string stream for AppendTo, returning the block and
// the number of input bytes consumed. Nothing is copied out of src, which
// must outlive the block; every code and length is checked here, so Rows
// and Bytes are exact and AppendTo cannot fail on them.
func (t *StringKind) Parse(src []byte, cfg *Config) (StringBlock, int, error) {
	return t.parse(src, cfg, false)
}

// Rows returns the block's row count.
func (b *StringBlock) Rows() int { return b.rows }

// Bytes returns the summed length of the block's rows.
func (b *StringBlock) Bytes() int { return b.size }

// parse parses src for one of the two finishers. forViews copies pools
// that lie in src, as views outlive it, and leaves a dictionary's codes to
// the loop that turns them into views.
func (t *StringKind) parse(src []byte, cfg *Config, forViews bool) (b StringBlock, used int, err error) {
	if b.scheme, b.rows, err = head(&t.schemes, src, cfg); err == nil {
		b, used, err = b.scheme.parse(b, src, cfg, forViews)
	}
	if err != nil {
		b.release(cfg.Scratch)
		return StringBlock{}, 0, err
	}
	return b, used, nil
}

// release returns the block's borrowed arrays once nothing reads them.
func (b *StringBlock) release(scr *Scratch) {
	Int.putBuf(scr, b.lengths)
	Int.putBuf(scr, b.starts)
	Int.putBuf(scr, b.codes)
	Int.putBuf(scr, b.runLens)
}

// AppendTo finishes the block as owned rows: it appends their bytes to
// dst.Data and the end of each row to dst.Offsets, and returns the grown
// vector. Ends count from base, the position of dst.Data's first byte in
// the column — 0 unless dst is a range of a larger column, which is how
// concurrent blocks each fill their own part of one. Every byte and
// offset is written once; with Rows() offsets and Bytes() bytes of spare
// capacity nothing is allocated or cleared.
func (b *StringBlock) AppendTo(dst coldata.Strings, base int, scr *Scratch) (coldata.Strings, error) {
	defer b.release(scr)
	offsets := grow(dst.Offsets, b.rows)
	data, err := b.scheme.appendTo(*b, dst.Data, offsets[len(dst.Offsets):], uint32(base+len(dst.Data)))
	if err != nil {
		return dst, err
	}
	return coldata.Strings{Offsets: offsets, Data: data}, nil
}

// replicate fills run with copies of its first filled elements, doubling
// the copied part each time.
func replicate[T any](run []T, filled int) {
	for ; filled > 0 && filled < len(run); filled *= 2 {
		copy(run[filled:], run[:filled])
	}
}
