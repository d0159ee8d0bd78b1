package core

import (
	"bytes"
	"encoding/binary"
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
	var out coldata.StringViews
	if len(src) < 1 {
		return out, 0, ErrCorrupt
	}
	code := Code(src[0])
	body := src[1:]
	switch code {
	case CodeUncompressed:
		out, used, err := decodeStringPlain(body)
		return out, used + 1, err
	case CodeOneValue:
		if len(body) < 8 {
			return out, 0, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(body))
		l := int(binary.LittleEndian.Uint32(body[4:]))
		if n > cfg.maxN() || l < 0 || len(body) < 8+l {
			return out, 0, ErrCorrupt
		}
		pool := append([]byte(nil), body[8:8+l]...)
		views := make([]coldata.View, n)
		for i := range views {
			views[i] = coldata.View{Off: 0, Len: uint32(l)}
		}
		return coldata.StringViews{Views: views, Pool: pool}, 1 + 8 + l, nil
	case CodeDict:
		out, used, err := decodeStringDict(body, cfg)
		return out, used + 1, err
	case CodeFSST:
		out, used, err := decodeStringFSST(body, cfg)
		return out, used + 1, err
	default:
		return out, 0, ErrCorrupt
	}
}

func decodeStringPlain(src []byte) (coldata.StringViews, int, error) {
	var out coldata.StringViews
	if len(src) < 8 {
		return out, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	dataLen := int(binary.LittleEndian.Uint32(src[4:]))
	if n > maxBlockValues || dataLen < 0 {
		return out, 0, ErrCorrupt
	}
	need := 8 + 4*(n+1) + dataLen
	if len(src) < need {
		return out, 0, ErrCorrupt
	}
	offsets := make([]uint32, n+1)
	for i := range offsets {
		offsets[i] = binary.LittleEndian.Uint32(src[8+4*i:])
	}
	views := make([]coldata.View, n)
	for i := 0; i < n; i++ {
		if offsets[i] > offsets[i+1] || int(offsets[i+1]) > dataLen {
			return out, 0, ErrCorrupt
		}
		views[i] = coldata.View{Off: offsets[i], Len: offsets[i+1] - offsets[i]}
	}
	pool := append([]byte(nil), src[8+4*(n+1):need]...)
	return coldata.StringViews{Views: views, Pool: pool}, need, nil
}

func decodeStringDict(src []byte, cfg *Config) (coldata.StringViews, int, error) {
	var out coldata.StringViews
	dict, n, pos, err := stringDictHead(src, cfg, true)
	if err != nil {
		return out, 0, err
	}
	dictViews, dictN := dict.Views, len(dict.Views)
	views := make([]coldata.View, n)
	// Fused Dict+RLE decompression (§5): when the code stream is RLE with
	// long runs, look up the dictionary per run and write runs of views
	// directly, skipping the intermediate codes array.
	if !cfg.DisableFuseDictRLE && !cfg.ScalarDecode && pos < len(src) && Code(src[pos]) == CodeRLE {
		rows, runValues, runLengths, used, err := Int.runParts(src[pos:], cfg)
		if err != nil {
			return out, 0, err
		}
		defer Int.putBuf(cfg.Scratch, runValues)
		defer Int.putBuf(cfg.Scratch, runLengths)
		if n > 0 && len(runValues) > 0 && float64(n)/float64(len(runValues)) > 3 {
			if rows != n {
				return out, 0, ErrCorrupt
			}
			o := 0
			for r, cv := range runValues {
				if uint32(cv) >= uint32(dictN) {
					return out, 0, ErrCorrupt
				}
				v := dictViews[cv]
				for end := o + int(runLengths[r]); o < end; o++ {
					views[o] = v
				}
			}
			return coldata.StringViews{Views: views, Pool: dict.Pool}, pos + used, nil
		}
		// short runs: fall through to the standard two-step decode below
	}
	codes, used, err := Int.decompress(Int.buf(cfg.Scratch), src[pos:], cfg)
	defer Int.putBuf(cfg.Scratch, codes)
	if err != nil {
		return out, 0, err
	}
	pos += used
	if len(codes) != n {
		return out, 0, ErrCorrupt
	}
	for i, c := range codes {
		if uint32(c) >= uint32(dictN) {
			return out, 0, ErrCorrupt
		}
		views[i] = dictViews[c]
	}
	return coldata.StringViews{Views: views, Pool: dict.Pool}, pos, nil
}

func decodeStringFSST(src []byte, cfg *Config) (coldata.StringViews, int, error) {
	var out coldata.StringViews
	if len(src) < 4 {
		return out, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	if n > cfg.maxN() {
		return out, 0, ErrCorrupt
	}
	pos := 4
	table, used, err := fsst.TableFromBytes(src[pos:])
	if err != nil {
		return out, 0, ErrCorrupt
	}
	pos += used
	if len(src) < pos+8 {
		return out, 0, ErrCorrupt
	}
	rawLen := int(binary.LittleEndian.Uint32(src[pos:]))
	encLen := int(binary.LittleEndian.Uint32(src[pos+4:]))
	pos += 8
	if rawLen < 0 || encLen < 0 || len(src) < pos+encLen || rawLen > 8*encLen {
		// See stringDictHead: cap the decode buffer by FSST's maximum
		// 8x expansion before allocating.
		return out, 0, ErrCorrupt
	}
	// One decode call over the whole block payload (§5: pass the first
	// offset and the summed length instead of per-string calls).
	pool, err := table.Decode(make([]byte, 0, rawLen), src[pos:pos+encLen])
	if err != nil || len(pool) != rawLen {
		return out, 0, ErrCorrupt
	}
	pos += encLen
	lengths, used, err := Int.decompress(Int.buf(cfg.Scratch), src[pos:], cfg)
	defer Int.putBuf(cfg.Scratch, lengths)
	if err != nil {
		return out, 0, err
	}
	pos += used
	if len(lengths) != n {
		return out, 0, ErrCorrupt
	}
	views := make([]coldata.View, n)
	off := uint32(0)
	for i, l := range lengths {
		if l < 0 || int(off)+int(l) > len(pool) {
			return out, 0, ErrCorrupt
		}
		views[i] = coldata.View{Off: off, Len: uint32(l)}
		off += uint32(l)
	}
	if int(off) != rawLen {
		return out, 0, ErrCorrupt
	}
	return coldata.StringViews{Views: views, Pool: pool}, pos, nil
}

// stringDictHead decodes only the dictionary of a Dict payload (body
// excludes the scheme-code byte): the distinct strings as views over their
// pool, the row count, and the body offset where the codes stream begins.
// own copies a raw pool out of body, for views that outlive it; predicate
// evaluation, which does not keep them, leaves it in place.
func stringDictHead(body []byte, cfg *Config, own bool) (dict coldata.StringViews, n, codesOff int, err error) {
	if len(body) < 9 {
		return dict, 0, 0, ErrCorrupt
	}
	n = int(binary.LittleEndian.Uint32(body))
	dictN := int(binary.LittleEndian.Uint32(body[4:]))
	if n > cfg.maxN() || dictN > n {
		return dict, 0, 0, ErrCorrupt
	}
	kind := body[8]
	pos := 9
	var pool []byte
	switch kind {
	case poolRaw:
		if len(body) < pos+4 {
			return dict, 0, 0, ErrCorrupt
		}
		l := int(binary.LittleEndian.Uint32(body[pos:]))
		pos += 4
		if l < 0 || len(body) < pos+l {
			return dict, 0, 0, ErrCorrupt
		}
		pool = body[pos : pos+l]
		if own {
			pool = append([]byte(nil), pool...)
		}
		pos += l
	case poolFSST:
		table, used, err := fsst.TableFromBytes(body[pos:])
		if err != nil {
			return dict, 0, 0, ErrCorrupt
		}
		pos += used
		if len(body) < pos+8 {
			return dict, 0, 0, ErrCorrupt
		}
		rawLen := int(binary.LittleEndian.Uint32(body[pos:]))
		encLen := int(binary.LittleEndian.Uint32(body[pos+4:]))
		pos += 8
		if rawLen < 0 || encLen < 0 || len(body) < pos+encLen || rawLen > 8*encLen {
			// rawLen > 8*encLen is structurally impossible (an FSST code
			// expands to at most 8 bytes), so don't let a corrupt header
			// size the allocation.
			return dict, 0, 0, ErrCorrupt
		}
		pool, err = table.Decode(make([]byte, 0, rawLen), body[pos:pos+encLen])
		if err != nil || len(pool) != rawLen {
			return dict, 0, 0, ErrCorrupt
		}
		pos += encLen
	default:
		return dict, 0, 0, ErrCorrupt
	}
	lengths, used, err := Int.decompress(Int.buf(cfg.Scratch), body[pos:], cfg)
	defer Int.putBuf(cfg.Scratch, lengths)
	if err != nil {
		return dict, 0, 0, err
	}
	pos += used
	if len(lengths) != dictN {
		return dict, 0, 0, ErrCorrupt
	}
	// Rebuild the dictionary's (offset, len) views over the pool.
	views := make([]coldata.View, dictN)
	off := uint32(0)
	for i, l := range lengths {
		if l < 0 || int(off)+int(l) > len(pool) {
			return dict, 0, 0, ErrCorrupt
		}
		views[i] = coldata.View{Off: off, Len: uint32(l)}
		off += uint32(l)
	}
	return coldata.StringViews{Views: views, Pool: pool}, n, pos, nil
}
