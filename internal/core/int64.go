package core

import (
	"encoding/binary"
	"math/rand"
	"time"

	"btrblocks/internal/bitpack"
	"btrblocks/internal/roaring"
	"btrblocks/internal/sample"
	"btrblocks/internal/stats"
)

// int64 columns (timestamps, surrogate keys) get the same scheme pool as
// int32 minus FastPFOR (FOR+bit-packing with per-128-block widths already
// absorbs the outlier cost at 64-bit widths). Sub-streams — RLE lengths
// and dictionary codes — are int32 and re-enter the 32-bit cascade.
var int64PoolOrder = []Code{CodeOneValue, CodeFastBP, CodeRLE, CodeDict, CodeFrequency}

// CompressInt64 compresses a block of int64 values into a self-describing
// stream.
func CompressInt64(dst []byte, src []int64, cfg *Config) []byte {
	c := cfg.forCompress()
	return compressInt64(dst, src, &c, c.MaxCascadeDepth, c.rng())
}

// ChooseInt64 reports the scheme the selection algorithm picks for src.
func ChooseInt64(src []int64, cfg *Config) (Code, float64) {
	c := cfg.forCompress()
	p := borrow(&c.Scratch.ints64)
	defer giveBack(&c.Scratch.ints64, p)
	code, est, _ := pickInt64(src, p, &c, c.MaxCascadeDepth, c.rng())
	return code, est
}

// EstimateOnlyInt64 mirrors EstimateOnlyInt for int64 blocks.
func EstimateOnlyInt64(src []int64, cfg *Config) {
	ChooseInt64(src, cfg)
}

func compressInt64(dst []byte, src []int64, cfg *Config, depth int, rng *rand.Rand) []byte {
	p := borrow(&cfg.Scratch.ints64)
	defer giveBack(&cfg.Scratch.ints64, p)
	if cfg.OnDecision == nil {
		code, _, _ := pickInt64(src, p, cfg, depth, rng)
		return encodeInt64As(dst, src, p, code, cfg, depth, rng)
	}
	t0 := time.Now()
	code, est, cands := pickInt64(src, p, cfg, depth, rng)
	pickNanos := time.Since(t0).Nanoseconds()
	before := len(dst)
	dst = encodeInt64As(dst, src, p, code, cfg, depth, rng)
	cfg.OnDecision(Decision{
		Kind: KindInt64, Level: cfg.MaxCascadeDepth - depth, Code: code,
		Values: len(src), InputBytes: 8 * len(src), OutputBytes: len(dst) - before,
		EstimatedRatio: est, PickNanos: pickNanos, Candidates: cands,
	})
	return dst
}

func pickInt64(src []int64, p *stats.Profile[int64], cfg *Config, depth int, rng *rand.Rand) (Code, float64, []CandidateEstimate) {
	if depth <= 0 || len(src) == 0 {
		return CodeUncompressed, 1, nil
	}
	collect := cfg.OnDecision != nil
	cfg = quiet(cfg)
	st := &profiled(p, src, cfg).Summary
	if st.Distinct == 1 && cfg.intEnabled(CodeOneValue) {
		est := float64(len(src)*8) / 13
		var cands []CandidateEstimate
		if collect {
			cands = []CandidateEstimate{{Code: CodeOneValue, EstimatedRatio: est}}
		}
		return CodeOneValue, est, cands
	}
	smp := sample.Ints64(src, cfg.Sample, rng)
	sp := p
	if len(smp) != len(src) {
		sp = borrow(&cfg.Scratch.ints64)
		defer giveBack(&cfg.Scratch.ints64, sp)
	}
	rawBytes := float64(len(smp) * 8)
	best, bestRatio := CodeUncompressed, 1.0
	var cands []CandidateEstimate
	if collect {
		cands = append(cands, CandidateEstimate{Code: CodeUncompressed, EstimatedRatio: 1, SampleBytes: 5 + 8*len(smp)})
	}
	for _, code := range int64PoolOrder {
		if !cfg.intEnabled(code) || !viable(code, st) {
			continue
		}
		enc := encodeInt64As(nil, smp, sp, code, cfg, depth, rng)
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

func encodeInt64As(dst []byte, src []int64, p *stats.Profile[int64], code Code, cfg *Config, depth int, rng *rand.Rand) []byte {
	dst = append(dst, byte(code))
	switch code {
	case CodeUncompressed:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		for _, v := range src {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
		return dst
	case CodeOneValue:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		return binary.LittleEndian.AppendUint64(dst, uint64(src[0]))
	case CodeRLE:
		values, lengths := runsOfInt64s(src)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(values)))
		dst = compressInt64(dst, values, cfg, depth-1, rng)
		return compressInt(dst, lengths, cfg, depth-1, rng)
	case CodeDict:
		dict, codes := sortedDict(profiled(p, src, cfg))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dict)))
		dst = compressInt64(dst, dict, cfg, depth-1, rng)
		return compressInt(dst, codes, cfg, depth-1, rng)
	case CodeFrequency:
		// the dominant value, a bitmap of the rows holding it, and the
		// other rows' values as a cascaded stream
		p = profiled(p, src, cfg)
		bm, exceptions := splitTop(&p.Summary, p.IDs, src)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Vals[p.TopID]))
		dst = bm.AppendTo(dst)
		return compressInt64(dst, exceptions, cfg, depth-1, rng)
	case CodeFastBP:
		return bitpack.EncodeFOR64(dst, src)
	}
	panic("unreachable scheme code " + code.String())
}

func runsOfInt64s(src []int64) (values []int64, lengths []int32) {
	if len(src) == 0 {
		return nil, nil
	}
	cur, n := src[0], int32(0)
	for _, v := range src {
		if v == cur {
			n++
			continue
		}
		values = append(values, cur)
		lengths = append(lengths, n)
		cur, n = v, 1
	}
	values = append(values, cur)
	lengths = append(lengths, n)
	return values, lengths
}

// DecompressInt64 decodes one int64 stream, appending values to dst and
// returning the bytes consumed.
func DecompressInt64(dst []int64, src []byte, cfg *Config) ([]int64, int, error) {
	c := cfg.normalized()
	return decompressInt64(dst, src, &c)
}

func decompressInt64(dst []int64, src []byte, cfg *Config) ([]int64, int, error) {
	if len(src) < 1 {
		return dst, 0, ErrCorrupt
	}
	code := Code(src[0])
	body := src[1:]
	switch code {
	case CodeUncompressed:
		if len(body) < 4 {
			return dst, 0, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(body))
		if n > maxBlockValues || len(body) < 4+8*n {
			return dst, 0, ErrCorrupt
		}
		for i := 0; i < n; i++ {
			dst = append(dst, int64(binary.LittleEndian.Uint64(body[4+8*i:])))
		}
		return dst, 1 + 4 + 8*n, nil
	case CodeOneValue:
		if len(body) < 12 {
			return dst, 0, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(body))
		if n > cfg.maxN() {
			return dst, 0, ErrCorrupt
		}
		v := int64(binary.LittleEndian.Uint64(body[4:]))
		for i := 0; i < n; i++ {
			dst = append(dst, v)
		}
		return dst, 13, nil
	case CodeRLE:
		out, used, err := decodeInt64RLE(dst, body, cfg)
		return out, used + 1, err
	case CodeDict:
		out, used, err := decodeInt64Dict(dst, body, cfg)
		return out, used + 1, err
	case CodeFrequency:
		out, used, err := decodeInt64Frequency(dst, body, cfg)
		return out, used + 1, err
	case CodeFastBP:
		decode := bitpack.DecodeFOR64
		if cfg.ScalarDecode {
			decode = bitpack.DecodeFOR64Generic
		}
		out, used, err := decode(dst, body)
		if err != nil {
			return dst, 0, ErrCorrupt
		}
		return out, used + 1, nil
	default:
		return dst, 0, ErrCorrupt
	}
}

func decodeInt64RLE(dst []int64, src []byte, cfg *Config) ([]int64, int, error) {
	if len(src) < 8 {
		return dst, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	runCount := int(binary.LittleEndian.Uint32(src[4:]))
	if n > cfg.maxN() || runCount > n {
		return dst, 0, ErrCorrupt
	}
	pos := 8
	values, used, err := decompressInt64(cfg.Scratch.getInt64(), src[pos:], cfg)
	defer cfg.Scratch.putInt64(values)
	if err != nil {
		return dst, 0, err
	}
	pos += used
	lengths, used, err := decompressInt(cfg.Scratch.getInt32(), src[pos:], cfg)
	defer cfg.Scratch.putInt32(lengths)
	if err != nil {
		return dst, 0, err
	}
	pos += used
	if len(values) != runCount || len(lengths) != runCount {
		return dst, 0, ErrCorrupt
	}
	out := len(dst)
	dst = append(dst, make([]int64, n)...)
	o := dst[out:]
	i := 0
	for r, v := range values {
		l := int(lengths[r])
		if l < 0 || i+l > n {
			return dst, 0, ErrCorrupt
		}
		if cfg.ScalarDecode || l <= 16 {
			for k := 0; k < l; k++ {
				o[i] = v
				i++
			}
			continue
		}
		run := o[i : i+l]
		run[0] = v
		for filled := 1; filled < l; filled *= 2 {
			copy(run[filled:], run[:filled])
		}
		i += l
	}
	if i != n {
		return dst, 0, ErrCorrupt
	}
	return dst, pos, nil
}

func decodeInt64Dict(dst []int64, src []byte, cfg *Config) ([]int64, int, error) {
	if len(src) < 8 {
		return dst, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	dictN := int(binary.LittleEndian.Uint32(src[4:]))
	if n > cfg.maxN() || dictN > n {
		return dst, 0, ErrCorrupt
	}
	pos := 8
	dict, used, err := decompressInt64(cfg.Scratch.getInt64(), src[pos:], cfg)
	defer cfg.Scratch.putInt64(dict)
	if err != nil {
		return dst, 0, err
	}
	pos += used
	if len(dict) != dictN {
		return dst, 0, ErrCorrupt
	}
	codes, used, err := decompressInt(cfg.Scratch.getInt32(), src[pos:], cfg)
	defer cfg.Scratch.putInt32(codes)
	if err != nil {
		return dst, 0, err
	}
	pos += used
	if len(codes) != n {
		return dst, 0, ErrCorrupt
	}
	out := len(dst)
	dst = append(dst, make([]int64, n)...)
	o := dst[out:]
	for i, c := range codes {
		if uint32(c) >= uint32(dictN) {
			return dst, 0, ErrCorrupt
		}
		o[i] = dict[c]
	}
	return dst, pos, nil
}

func decodeInt64Frequency(dst []int64, src []byte, cfg *Config) ([]int64, int, error) {
	if len(src) < 12 {
		return dst, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	if n > cfg.maxN() {
		return dst, 0, ErrCorrupt
	}
	top := int64(binary.LittleEndian.Uint64(src[4:]))
	pos := 12
	bm, used, err := roaring.FromBytes(src[pos:])
	if err != nil {
		return dst, 0, ErrCorrupt
	}
	pos += used
	exceptions, used, err := decompressInt64(cfg.Scratch.getInt64(), src[pos:], cfg)
	defer cfg.Scratch.putInt64(exceptions)
	if err != nil {
		return dst, 0, err
	}
	pos += used
	if bm.Cardinality()+len(exceptions) != n {
		return dst, 0, ErrCorrupt
	}
	out := len(dst)
	dst = append(dst, make([]int64, n)...)
	o := dst[out:]
	ei := 0
	next := 0
	okBM := true
	bm.ForEach(func(v uint32) bool {
		if int(v) >= n {
			okBM = false
			return false
		}
		for next < int(v) {
			o[next] = exceptions[ei]
			ei++
			next++
		}
		o[next] = top
		next++
		return true
	})
	if !okBM {
		return dst, 0, ErrCorrupt
	}
	for next < n {
		o[next] = exceptions[ei]
		ei++
		next++
	}
	return dst, pos, nil
}

// CountEqualInt64 counts occurrences of v in one compressed int64 stream,
// exploiting the compressed form where the scheme permits.
func CountEqualInt64(src []byte, v int64, cfg *Config) (int, int, error) {
	c := cfg.normalized()
	return countEqualInt64(src, v, &c)
}

func countEqualInt64(src []byte, v int64, cfg *Config) (int, int, error) {
	if len(src) < 1 {
		return 0, 0, ErrCorrupt
	}
	code := Code(src[0])
	body := src[1:]
	switch code {
	case CodeOneValue:
		if len(body) < 12 {
			return 0, 0, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(body))
		if n > maxBlockValues {
			return 0, 0, ErrCorrupt
		}
		if int64(binary.LittleEndian.Uint64(body[4:])) == v {
			return n, 13, nil
		}
		return 0, 13, nil
	case CodeRLE:
		if len(body) < 8 {
			return 0, 0, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(body))
		runCount := int(binary.LittleEndian.Uint32(body[4:]))
		if n > maxBlockValues || runCount > n {
			return 0, 0, ErrCorrupt
		}
		pos := 1 + 8
		values, used, err := decompressInt64(nil, src[pos:], cfg)
		if err != nil {
			return 0, 0, err
		}
		pos += used
		lengths, used, err := decompressInt(nil, src[pos:], cfg)
		if err != nil {
			return 0, 0, err
		}
		pos += used
		if len(values) != runCount || len(lengths) != runCount {
			return 0, 0, ErrCorrupt
		}
		count := 0
		for i, rv := range values {
			if rv == v {
				count += int(lengths[i])
			}
		}
		return count, pos, nil
	case CodeDict:
		if len(body) < 8 {
			return 0, 0, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(body))
		dictN := int(binary.LittleEndian.Uint32(body[4:]))
		if n > maxBlockValues || dictN > n {
			return 0, 0, ErrCorrupt
		}
		pos := 1 + 8
		dict, used, err := decompressInt64(nil, src[pos:], cfg)
		if err != nil {
			return 0, 0, err
		}
		pos += used
		target := int32(-1)
		for i, dv := range dict {
			if dv == v {
				target = int32(i)
				break
			}
		}
		if target < 0 {
			_, used, err := decompressInt(nil, src[pos:], cfg)
			if err != nil {
				return 0, 0, err
			}
			return 0, pos + used, nil
		}
		count, used, err := countEqualInt(src[pos:], target, cfg)
		if err != nil {
			return 0, 0, err
		}
		return count, pos + used, nil
	case CodeFrequency:
		if len(body) < 12 {
			return 0, 0, ErrCorrupt
		}
		top := int64(binary.LittleEndian.Uint64(body[4:]))
		pos := 1 + 12
		bm, used, err := roaring.FromBytes(src[pos:])
		if err != nil {
			return 0, 0, ErrCorrupt
		}
		pos += used
		if top == v {
			_, used, err := decompressInt64(nil, src[pos:], cfg)
			if err != nil {
				return 0, 0, err
			}
			return bm.Cardinality(), pos + used, nil
		}
		count, used, err := countEqualInt64(src[pos:], v, cfg)
		if err != nil {
			return 0, 0, err
		}
		return count, pos + used, nil
	default:
		values, used, err := decompressInt64(nil, src, cfg)
		if err != nil {
			return 0, 0, err
		}
		count := 0
		for _, x := range values {
			if x == v {
				count++
			}
		}
		return count, used, nil
	}
}
