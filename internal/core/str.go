package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"time"

	"btrblocks/coldata"
	"btrblocks/internal/fsst"
	"btrblocks/internal/sample"
	"btrblocks/internal/stats"
)

// stringPoolOrder is the candidate order for string schemes — the string
// branch of Figure 3: One Value, Dictionary (optionally with an
// FSST-compressed pool), direct FSST, or Uncompressed.
var stringPoolOrder = []Code{CodeOneValue, CodeDict, CodeFSST}

// poolKind values inside a Dict payload.
const (
	poolRaw  = 0
	poolFSST = 1
)

// CompressString compresses a block of strings into a self-describing
// stream.
func CompressString(dst []byte, src coldata.Strings, cfg *Config) []byte {
	c := cfg.forCompress()
	return compressString(dst, src, &c, c.MaxCascadeDepth, c.rng())
}

// CompressStringAs forces a specific root scheme, as Numeric.CompressAs
// does; nil if the scheme does not apply to the data.
func CompressStringAs(dst []byte, src coldata.Strings, code Code, cfg *Config) []byte {
	c := cfg.forCompress()
	p := borrow(&c.Scratch.strs)
	defer giveBack(&c.Scratch.strs, p)
	if code != CodeUncompressed && (src.Len() == 0 || !slices.Contains(stringPoolOrder, code)) ||
		code == CodeOneValue && profiledStrings(p, src, &c).Distinct != 1 {
		return nil
	}
	return encodeStringAs(dst, src, p, code, &c, c.MaxCascadeDepth, c.rng())
}

// StringSchemes lists every root scheme applicable to string blocks.
func StringSchemes() []Code { return append([]Code{CodeUncompressed}, stringPoolOrder...) }

// ChooseString reports the scheme the selection algorithm picks for src
// and its estimated ratio.
func ChooseString(src coldata.Strings, cfg *Config) (Code, float64) {
	c := cfg.forCompress()
	p := borrow(&c.Scratch.strs)
	defer giveBack(&c.Scratch.strs, p)
	code, est, _ := pickString(src, p, &c, c.MaxCascadeDepth, c.rng())
	return code, est
}

func compressString(dst []byte, src coldata.Strings, cfg *Config, depth int, rng *rand.Rand) []byte {
	p := borrow(&cfg.Scratch.strs)
	defer giveBack(&cfg.Scratch.strs, p)
	if cfg.OnDecision == nil {
		code, _, _ := pickString(src, p, cfg, depth, rng)
		return encodeStringAs(dst, src, p, code, cfg, depth, rng)
	}
	t0 := time.Now()
	code, est, cands := pickString(src, p, cfg, depth, rng)
	pickNanos := time.Since(t0).Nanoseconds()
	before := len(dst)
	dst = encodeStringAs(dst, src, p, code, cfg, depth, rng)
	cfg.OnDecision(Decision{
		Kind: KindString, Level: cfg.MaxCascadeDepth - depth, Code: code,
		Values: src.Len(), InputBytes: src.TotalBytes(), OutputBytes: len(dst) - before,
		EstimatedRatio: est, PickNanos: pickNanos, Candidates: cands,
	})
	return dst
}

func pickString(src coldata.Strings, p *stats.StringProfile, cfg *Config, depth int, rng *rand.Rand) (Code, float64, []CandidateEstimate) {
	if depth <= 0 || src.Len() == 0 {
		return CodeUncompressed, 1, nil
	}
	collect := cfg.OnDecision != nil
	cfg = quiet(cfg)
	st := profiledStrings(p, src, cfg)
	if st.Distinct == 1 && cfg.stringEnabled(CodeOneValue) {
		est := float64(src.TotalBytes()) / float64(9+st.MaxLen)
		var cands []CandidateEstimate
		if collect {
			cands = []CandidateEstimate{{Code: CodeOneValue, EstimatedRatio: est}}
		}
		return CodeOneValue, est, cands
	}
	smp := sample.Strings(src, cfg.Sample, rng)
	sp := p
	if smp.Len() != src.Len() {
		sp = borrow(&cfg.Scratch.strs)
		defer giveBack(&cfg.Scratch.strs, sp)
	}
	rawBytes := float64(smp.TotalBytes())
	best, bestRatio := CodeUncompressed, 1.0
	var cands []CandidateEstimate
	if collect {
		cands = append(cands, CandidateEstimate{Code: CodeUncompressed, EstimatedRatio: 1, SampleBytes: 5 + smp.TotalBytes()})
	}
	for _, code := range stringPoolOrder {
		if !cfg.stringEnabled(code) || !stringViable(code, st) {
			continue
		}
		enc := encodeStringAs(nil, smp, sp, code, cfg, depth, rng)
		ratio := rawBytes / float64(len(enc))
		if collect {
			cands = append(cands, CandidateEstimate{Code: code, EstimatedRatio: ratio, SampleBytes: len(enc)})
		}
		if ratio > bestRatio {
			best, bestRatio = code, ratio
		}
	}
	return best, bestRatio, cands
}

func stringViable(code Code, st *stats.StringProfile) bool {
	if code == CodeFSST {
		// FSST needs some redundancy in the bytes; on near-empty payloads
		// the table overhead dominates.
		return st.TotalLen >= 64
	}
	return viable(code, &st.Summary)
}

func encodeStringAs(dst []byte, src coldata.Strings, p *stats.StringProfile, code Code, cfg *Config, depth int, rng *rand.Rand) []byte {
	dst = append(dst, byte(code))
	switch code {
	case CodeUncompressed:
		return encodeStringPlain(dst, src)
	case CodeOneValue:
		v := src.View(0)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(src.Len()))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
		return append(dst, v...)
	case CodeDict:
		return encodeStringDict(dst, src, profiledStrings(p, src, cfg), cfg, depth, rng)
	case CodeFSST:
		return encodeStringFSST(dst, src, cfg, depth, rng)
	}
	panic("unreachable scheme code " + code.String())
}

func encodeStringPlain(dst []byte, src coldata.Strings) []byte {
	n := src.Len()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src.Data)))
	for i := 0; i <= n; i++ {
		off := uint32(0)
		if len(src.Offsets) > 0 {
			off = src.Offsets[i]
		}
		dst = binary.LittleEndian.AppendUint32(dst, off)
	}
	return append(dst, src.Data...)
}

// encodeStringDict stores the sorted distinct strings as a pool (raw or
// FSST-compressed, whichever is smaller), the pool string lengths as a
// cascaded integer stream, and the per-row codes as a cascaded integer
// stream — which the selection algorithm typically sends to RLE or
// bit-packing. The distinct strings and the rows' ids come from the
// stream's profile p.
func encodeStringDict(dst []byte, src coldata.Strings, p *stats.StringProfile, cfg *Config, depth int, rng *rand.Rand) []byte {
	pool, lengths, codes := sortedStringDict(src, p)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(src.Len()))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(lengths)))

	// Try FSST on the dictionary pool ("Dict+FSST" in Figure 3/4).
	useFSST := false
	var table, encPool []byte
	if cfg.stringEnabled(CodeFSST) && depth > 1 && len(pool) >= 64 {
		t := cfg.Scratch.trainer.Train([][]byte{pool})
		table, encPool = t.AppendTable(nil), t.Encode(nil, pool)
		useFSST = len(encPool)+len(table) < len(pool)*95/100
	}
	if useFSST {
		dst = append(dst, poolFSST)
		dst = append(dst, table...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pool)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(encPool)))
		dst = append(dst, encPool...)
	} else {
		dst = append(dst, poolRaw)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pool)))
		dst = append(dst, pool...)
	}
	dst = Int.compress(dst, lengths, cfg, depth-1, rng)
	return Int.compress(dst, codes, cfg, depth-1, rng)
}

// sortedStringDict is sortedDict for strings: the distinct values of the
// profile concatenated in lexicographic order, their lengths, and per row
// the rank of its value.
func sortedStringDict(src coldata.Strings, p *stats.StringProfile) (pool []byte, lengths, codes []int32) {
	value := func(id int32) []byte { return src.Data[p.Vals[id].Off:p.Vals[id].End] }
	order := make([]int32, len(p.Vals))
	for id := range order {
		order[id] = int32(id)
	}
	slices.SortFunc(order, func(a, b int32) int { return bytes.Compare(value(a), value(b)) })
	rank := make([]int32, len(order))
	lengths = make([]int32, len(order))
	for i, id := range order {
		v := value(id)
		rank[id], lengths[i] = int32(i), int32(len(v))
		pool = append(pool, v...)
	}
	codes = make([]int32, len(p.IDs))
	for i, id := range p.IDs {
		codes[i] = rank[id]
	}
	return pool, lengths, codes
}

// encodeStringFSST compresses the block's whole string payload with one
// trained symbol table and stores only the uncompressed string lengths
// next to it (§5: offsets of compressed strings are not needed when the
// block is decoded as one contiguous buffer).
func encodeStringFSST(dst []byte, src coldata.Strings, cfg *Config, depth int, rng *rand.Rand) []byte {
	n := src.Len()
	table := cfg.Scratch.trainer.Train([][]byte{src.Data})
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = table.AppendTable(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src.Data)))
	// The payload is encoded straight into dst; its length, which precedes
	// it, is patched in afterwards.
	lenPos := len(dst)
	dst = table.Encode(append(dst, 0, 0, 0, 0), src.Data)
	binary.LittleEndian.PutUint32(dst[lenPos:], uint32(len(dst)-lenPos-4))
	lengths := make([]int32, n)
	for i := range lengths {
		lengths[i] = int32(src.LenAt(i))
	}
	return Int.compress(dst, lengths, cfg, depth-1, rng)
}

// DecompressString decodes one string stream into a no-copy view column,
// returning the views and the number of input bytes consumed.
func DecompressString(src []byte, cfg *Config) (coldata.StringViews, int, error) {
	c := cfg.normalized()
	return decompressString(src, &c)
}

func decompressString(src []byte, cfg *Config) (coldata.StringViews, int, error) {
	b, used, err := parseString(src, cfg, true)
	if err != nil {
		return coldata.StringViews{}, 0, err
	}
	views, err := b.views(cfg.Scratch)
	return views, used, err
}

// StringBlock is one string stream parsed and validated but not yet
// expanded into rows — the half of decoding the view decoder and the
// materialising decoder share. Its integer arrays are borrowed from the
// Scratch it was parsed with; the finisher (views or AppendTo) consumes
// the block and hands them to the Scratch it is given, which may be
// another worker's at a later time, never a concurrent one.
type StringBlock struct {
	code Code
	rows int
	size int // decoded bytes of all rows (not counted for a Dict block parsed for views)
	// pool is where the rows' bytes are: an Uncompressed payload (indexed
	// by offsets, rows+1 little-endian words still in the stream), the one
	// value, or a dictionary's strings (indexed by starts). An FSST block has
	// payload, table and lengths in its place: the rows are decoded only by
	// the finisher, straight into where they are wanted.
	pool, offsets, payload []byte
	table                  *fsst.Table
	lengths                []int32
	// A Dict block's entry c is pool[starts[c]:starts[c+1]]; it has one code
	// per row, or — fused Dict+RLE (§5) — one per run of runLens rows.
	starts, codes, runLens []int32
}

// ParseString parses one string stream for AppendTo, returning the block
// and the number of input bytes consumed. Nothing is copied out of src,
// which must outlive the block; every code and length is checked here,
// so Rows and Bytes are exact and AppendTo cannot fail on them.
func ParseString(src []byte, cfg *Config) (StringBlock, int, error) {
	c := cfg.normalized()
	return parseString(src, &c, false)
}

// Rows returns the block's row count.
func (b *StringBlock) Rows() int { return b.rows }

// Bytes returns the summed length of the block's rows.
func (b *StringBlock) Bytes() int { return b.size }

// parseString parses src for one of the two finishers. forViews copies
// pools that lie in src, as views outlive it, and leaves a dictionary's
// codes to the loop that turns them into views.
func parseString(src []byte, cfg *Config, forViews bool) (b StringBlock, used int, err error) {
	if len(src) < 1 {
		return b, 0, ErrCorrupt
	}
	b.code = Code(src[0])
	body := src[1:]
	switch b.code {
	case CodeUncompressed:
		used, err = b.parsePlain(body)
	case CodeOneValue:
		if len(body) < 8 {
			return b, 0, ErrCorrupt
		}
		b.rows = int(binary.LittleEndian.Uint32(body))
		l := int(binary.LittleEndian.Uint32(body[4:]))
		if b.rows > cfg.maxN() || l < 0 || len(body) < 8+l {
			return b, 0, ErrCorrupt
		}
		b.pool, b.size, used = body[8:8+l], b.rows*l, 8+l
	case CodeDict:
		used, err = b.parseDict(body, cfg, forViews)
	case CodeFSST:
		used, err = b.parseFSST(body, cfg)
	default:
		err = ErrCorrupt
	}
	if err != nil {
		b.release(cfg.Scratch)
		return StringBlock{}, 0, err
	}
	if forViews && (b.code == CodeUncompressed || b.code == CodeOneValue) {
		b.pool = append([]byte(nil), b.pool...)
	}
	return b, used + 1, nil
}

// release returns the block's borrowed arrays once nothing reads them.
func (b *StringBlock) release(scr *Scratch) {
	Int.putBuf(scr, b.lengths)
	Int.putBuf(scr, b.starts)
	Int.putBuf(scr, b.codes)
	Int.putBuf(scr, b.runLens)
}

func (b *StringBlock) parsePlain(src []byte) (int, error) {
	if len(src) < 8 {
		return 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	dataLen := int(binary.LittleEndian.Uint32(src[4:]))
	if n > maxBlockValues || dataLen < 0 {
		return 0, ErrCorrupt
	}
	need := 8 + 4*(n+1) + dataLen
	if len(src) < need {
		return 0, ErrCorrupt
	}
	b.rows, b.offsets, b.pool = n, src[8:8+4*(n+1)], src[8+4*(n+1):need]
	if n == 0 {
		return need, nil
	}
	first := binary.LittleEndian.Uint32(b.offsets)
	last := first
	for i := 1; i <= n; i++ {
		next := binary.LittleEndian.Uint32(b.offsets[4*i:])
		if last > next {
			return 0, ErrCorrupt
		}
		last = next
	}
	if int(last) > dataLen {
		return 0, ErrCorrupt
	}
	b.size = int(last - first)
	return need, nil
}

func (b *StringBlock) parseDict(src []byte, cfg *Config, forViews bool) (int, error) {
	pool, starts, n, pos, err := stringDictHead(src, cfg, forViews)
	if err != nil {
		return 0, err
	}
	b.rows, b.pool, b.starts = n, pool, starts
	// Fused Dict+RLE decompression (§5): when the code stream is RLE with
	// long runs, look up the dictionary per run and write runs of rows
	// directly, skipping the intermediate codes array.
	if !cfg.DisableFuseDictRLE && !cfg.ScalarDecode && pos < len(src) && Code(src[pos]) == CodeRLE {
		rows, runValues, runLengths, used, err := Int.runParts(src[pos:], cfg)
		if err != nil {
			return 0, err
		}
		b.codes, b.runLens = runValues, runLengths
		if n > 0 && len(runValues) > 0 && float64(n)/float64(len(runValues)) > 3 {
			if rows != n {
				return 0, ErrCorrupt
			}
			return pos + used, b.sizeDict(forViews)
		}
		// short runs: fall through to the standard two-step decode below
		Int.putBuf(cfg.Scratch, runValues)
		Int.putBuf(cfg.Scratch, runLengths)
		b.codes, b.runLens = nil, nil
	}
	codes, used, err := Int.decompress(Int.buf(cfg.Scratch), src[pos:], cfg)
	b.codes = codes
	if err != nil {
		return 0, err
	}
	if len(codes) != n {
		return 0, ErrCorrupt
	}
	return pos + used, b.sizeDict(forViews)
}

// sizeDict checks a Dict block's codes against its dictionary and sums
// the rows' lengths — unless views are wanted, which need no sum and
// check the codes as they look them up.
func (b *StringBlock) sizeDict(forViews bool) error {
	if forViews {
		return nil
	}
	for r, c := range b.codes {
		if uint32(c) >= uint32(len(b.starts)-1) {
			return ErrCorrupt
		}
		l := int(b.starts[c+1] - b.starts[c])
		if b.runLens != nil {
			l *= int(b.runLens[r])
		}
		b.size += l
	}
	return nil
}

func (b *StringBlock) parseFSST(src []byte, cfg *Config) (int, error) {
	if len(src) < 4 {
		return 0, ErrCorrupt
	}
	b.rows = int(binary.LittleEndian.Uint32(src))
	if b.rows > cfg.maxN() {
		return 0, ErrCorrupt
	}
	pos := 4
	table, used, err := fsst.TableFromBytes(src[pos:])
	if err != nil {
		return 0, ErrCorrupt
	}
	pos += used
	if len(src) < pos+8 {
		return 0, ErrCorrupt
	}
	rawLen := int(binary.LittleEndian.Uint32(src[pos:]))
	encLen := int(binary.LittleEndian.Uint32(src[pos+4:]))
	pos += 8
	if rawLen < 0 || encLen < 0 || len(src) < pos+encLen || rawLen > 8*encLen {
		// See stringDictHead: cap the decode buffer by FSST's maximum
		// 8x expansion before allocating.
		return 0, ErrCorrupt
	}
	b.table, b.payload, b.size = table, src[pos:pos+encLen], rawLen
	pos += encLen
	b.lengths, used, err = Int.decompress(Int.buf(cfg.Scratch), src[pos:], cfg)
	if err != nil {
		return 0, err
	}
	if len(b.lengths) != b.rows {
		return 0, ErrCorrupt
	}
	sum, signs := 0, int32(0)
	for _, l := range b.lengths {
		sum += int(l)
		signs |= l
	}
	if signs < 0 || sum != rawLen {
		return 0, ErrCorrupt
	}
	return pos + used, nil
}

// decodeFSST decodes the block's payload onto dst in one call (§5: the
// first offset and the summed length instead of per-string calls). The
// decoder's wide stores stay inside dst's capacity, so a dst that is a
// three-index range of a larger buffer bounds them to that range.
func (b *StringBlock) decodeFSST(dst []byte) ([]byte, error) {
	out, err := b.table.Decode(dst, b.payload)
	if err != nil || len(out) != len(dst)+b.size {
		return dst, ErrCorrupt
	}
	return out, nil
}

// views finishes the block as §5 views over one pool; no row is copied.
func (b *StringBlock) views(scr *Scratch) (coldata.StringViews, error) {
	defer b.release(scr)
	views, pool := make([]coldata.View, b.rows), b.pool
	switch b.code {
	case CodeUncompressed:
		for i := range views {
			lo, hi := binary.LittleEndian.Uint32(b.offsets[4*i:]), binary.LittleEndian.Uint32(b.offsets[4*i+4:])
			views[i] = coldata.View{Off: lo, Len: hi - lo}
		}
	case CodeOneValue:
		for i := range views {
			views[i] = coldata.View{Len: uint32(len(pool))}
		}
	case CodeFSST:
		var err error
		if pool, err = b.decodeFSST(make([]byte, 0, b.size)); err != nil {
			return coldata.StringViews{}, err
		}
		off := uint32(0)
		for i, l := range b.lengths {
			views[i] = coldata.View{Off: off, Len: uint32(l)}
			off += uint32(l)
		}
	case CodeDict:
		entries := uint32(len(b.starts) - 1)
		if b.runLens == nil {
			for i, c := range b.codes {
				if uint32(c) >= entries {
					return coldata.StringViews{}, ErrCorrupt
				}
				views[i] = coldata.View{Off: uint32(b.starts[c]), Len: uint32(b.starts[c+1] - b.starts[c])}
			}
			break
		}
		o := 0
		for r, c := range b.codes {
			if uint32(c) >= entries {
				return coldata.StringViews{}, ErrCorrupt
			}
			v := coldata.View{Off: uint32(b.starts[c]), Len: uint32(b.starts[c+1] - b.starts[c])}
			for end := o + int(b.runLens[r]); o < end; o++ {
				views[o] = v
			}
		}
	}
	return coldata.StringViews{Views: views, Pool: pool}, nil
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
	at, k := len(dst.Data), len(dst.Offsets)
	if b.code == CodeFSST {
		data, err := b.decodeFSST(dst.Data)
		if err != nil {
			return dst, err
		}
		dst.Data = data
	} else {
		dst.Data = grow(dst.Data, b.size)
	}
	dst.Offsets = grow(dst.Offsets, b.rows)
	out, ends := dst.Data[at:], dst.Offsets[k:]
	end := uint32(base + at) // of the row before
	switch b.code {
	case CodeUncompressed:
		if b.rows > 0 {
			first := binary.LittleEndian.Uint32(b.offsets)
			copy(out, b.pool[first:])
			for i := range ends {
				ends[i] = end + binary.LittleEndian.Uint32(b.offsets[4*i+4:]) - first
			}
		}
	case CodeOneValue:
		replicate(out, copy(out, b.pool))
		for i := range ends {
			end += uint32(len(b.pool))
			ends[i] = end
		}
	case CodeFSST:
		for i, l := range b.lengths {
			end += uint32(l)
			ends[i] = end
		}
	case CodeDict:
		if b.runLens == nil {
			for i, c := range b.codes {
				src, l := b.pool[b.starts[c]:], uint32(b.starts[c+1]-b.starts[c])
				if l <= 16 && len(src) >= 16 && len(out) >= 16 {
					// A short entry moves as one 16-byte word; what spills
					// past it is inside this block's bytes and the next
					// row overwrites it.
					*(*[16]byte)(out) = [16]byte(src)
				} else {
					copy(out, src[:l])
				}
				out = out[l:]
				end += l
				ends[i] = end
			}
			break
		}
		i := 0
		for r, c := range b.codes {
			// One copy per run, then the run doubles itself.
			v, n := b.pool[b.starts[c]:b.starts[c+1]], int(b.runLens[r])
			run := out[:n*len(v)]
			replicate(run, copy(run, v))
			out = out[len(run):]
			for stop := i + n; i < stop; i++ {
				end += uint32(len(v))
				ends[i] = end
			}
		}
	}
	return dst, nil
}

// replicate fills run with copies of its first filled elements, doubling
// the copied part each time.
func replicate[T any](run []T, filled int) {
	for ; filled > 0 && filled < len(run); filled *= 2 {
		copy(run[filled:], run[:filled])
	}
}

// stringDictHead decodes only the dictionary of a Dict payload (body
// excludes the scheme-code byte): its pool, in which entry c is
// pool[starts[c]:starts[c+1]], the row count, and the body offset where
// the codes stream begins. starts is arena-backed: the caller returns it
// with Int.putBuf. own copies a raw pool out of body, for views that
// outlive it; predicate evaluation and AppendTo, which do not keep it,
// leave it in place.
func stringDictHead(body []byte, cfg *Config, own bool) (pool []byte, starts []int32, n, codesOff int, err error) {
	if len(body) < 9 {
		return nil, nil, 0, 0, ErrCorrupt
	}
	n = int(binary.LittleEndian.Uint32(body))
	dictN := int(binary.LittleEndian.Uint32(body[4:]))
	if n > cfg.maxN() || dictN > n {
		return nil, nil, 0, 0, ErrCorrupt
	}
	kind := body[8]
	pos := 9
	switch kind {
	case poolRaw:
		if len(body) < pos+4 {
			return nil, nil, 0, 0, ErrCorrupt
		}
		l := int(binary.LittleEndian.Uint32(body[pos:]))
		pos += 4
		if l < 0 || len(body) < pos+l {
			return nil, nil, 0, 0, ErrCorrupt
		}
		pool = body[pos : pos+l]
		if own {
			pool = append([]byte(nil), pool...)
		}
		pos += l
	case poolFSST:
		table, used, err := fsst.TableFromBytes(body[pos:])
		if err != nil {
			return nil, nil, 0, 0, ErrCorrupt
		}
		pos += used
		if len(body) < pos+8 {
			return nil, nil, 0, 0, ErrCorrupt
		}
		rawLen := int(binary.LittleEndian.Uint32(body[pos:]))
		encLen := int(binary.LittleEndian.Uint32(body[pos+4:]))
		pos += 8
		if rawLen < 0 || encLen < 0 || len(body) < pos+encLen || rawLen > 8*encLen {
			// rawLen > 8*encLen is structurally impossible (an FSST code
			// expands to at most 8 bytes), so don't let a corrupt header
			// size the allocation.
			return nil, nil, 0, 0, ErrCorrupt
		}
		pool, err = table.Decode(make([]byte, 0, rawLen), body[pos:pos+encLen])
		if err != nil || len(pool) != rawLen {
			return nil, nil, 0, 0, ErrCorrupt
		}
		pos += encLen
	default:
		return nil, nil, 0, 0, ErrCorrupt
	}
	// The entry lengths decode behind a leading zero and are summed in
	// place into the entries' start offsets.
	starts, used, err := Int.decompress(append(Int.buf(cfg.Scratch), 0), body[pos:], cfg)
	if err == nil && len(starts) != dictN+1 {
		err = ErrCorrupt
	}
	limit := min(len(pool), math.MaxInt32)
	for i := 1; err == nil && i < len(starts); i++ {
		if starts[i] < 0 || int(starts[i-1])+int(starts[i]) > limit {
			err = ErrCorrupt
			break
		}
		starts[i] += starts[i-1]
	}
	if err != nil {
		Int.putBuf(cfg.Scratch, starts)
		return nil, nil, 0, 0, err
	}
	return pool, starts, n, pos + used, nil
}
