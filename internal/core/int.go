package core

import (
	"encoding/binary"
	"math/rand"
	"time"

	"btrblocks/internal/bitpack"
	"btrblocks/internal/fastpfor"
	"btrblocks/internal/roaring"
	"btrblocks/internal/sample"
	"btrblocks/internal/stats"
)

// quiet returns cfg with the decision hook stripped, so the trial encodes
// a pick function runs on samples are not reported as real decisions.
func quiet(cfg *Config) *Config {
	if cfg.OnDecision == nil {
		return cfg
	}
	c := *cfg
	c.OnDecision = nil
	return &c
}

// intPoolOrder is the fixed candidate order; on estimate ties the earlier
// (cheaper to decode) scheme wins.
var intPoolOrder = []Code{CodeOneValue, CodeFastBP, CodeFastPFOR, CodeRLE, CodeDict, CodeFrequency}

// CompressInt compresses a block of int32 values into a self-describing
// stream using sampling-based scheme selection with cascading.
func CompressInt(dst []byte, src []int32, cfg *Config) []byte {
	c := cfg.forCompress()
	return compressInt(dst, src, &c, c.MaxCascadeDepth, c.rng())
}

// ChooseInt reports which scheme the selection algorithm would pick for
// src and the estimated compression ratio, without compressing the block.
func ChooseInt(src []int32, cfg *Config) (Code, float64) {
	c := cfg.forCompress()
	p := borrow(&c.Scratch.ints)
	defer giveBack(&c.Scratch.ints, p)
	code, est, _ := pickInt(src, p, &c, c.MaxCascadeDepth, c.rng())
	return code, est
}

// compressInt picks a scheme for src and encodes it. The stream's profile
// is built at most once and shared by the picker and the winning encoder.
func compressInt(dst []byte, src []int32, cfg *Config, depth int, rng *rand.Rand) []byte {
	p := borrow(&cfg.Scratch.ints)
	defer giveBack(&cfg.Scratch.ints, p)
	if cfg.OnDecision == nil {
		code, _, _ := pickInt(src, p, cfg, depth, rng)
		return encodeIntAs(dst, src, p, code, cfg, depth, rng)
	}
	t0 := time.Now()
	code, est, cands := pickInt(src, p, cfg, depth, rng)
	pickNanos := time.Since(t0).Nanoseconds()
	before := len(dst)
	dst = encodeIntAs(dst, src, p, code, cfg, depth, rng)
	cfg.OnDecision(Decision{
		Kind: KindInt, Level: cfg.MaxCascadeDepth - depth, Code: code,
		Values: len(src), InputBytes: 4 * len(src), OutputBytes: len(dst) - before,
		EstimatedRatio: est, PickNanos: pickNanos, Candidates: cands,
	})
	return dst
}

// EstimateOnlyInt runs just the statistics + sampling + per-scheme
// estimation for a block, without compressing it. Used to measure the
// §3.1 selection overhead.
func EstimateOnlyInt(src []int32, cfg *Config) {
	ChooseInt(src, cfg)
}

// pickInt is the scheme-picking algorithm of Listing 1: filter by
// statistics, estimate each viable scheme's ratio on a sample, take the
// best. Depth 0 always yields Uncompressed. Candidate estimates are
// collected only when the caller's decision hook is set, so the default
// path allocates nothing extra. p is the (possibly not yet built) profile
// of src; the trial encodes share one profile of the sample the same way.
func pickInt(src []int32, p *stats.Profile[int32], cfg *Config, depth int, rng *rand.Rand) (Code, float64, []CandidateEstimate) {
	if depth <= 0 || len(src) == 0 {
		return CodeUncompressed, 1, nil
	}
	collect := cfg.OnDecision != nil
	cfg = quiet(cfg)
	st := &profiled(p, src, cfg).Summary
	if st.Distinct == 1 && cfg.intEnabled(CodeOneValue) {
		est := float64(len(src)*4) / 9
		var cands []CandidateEstimate
		if collect {
			cands = []CandidateEstimate{{Code: CodeOneValue, EstimatedRatio: est}}
		}
		return CodeOneValue, est, cands
	}
	smp := sample.Ints(src, cfg.Sample, rng)
	sp := p // a block no larger than the sample is its own sample
	if len(smp) != len(src) {
		sp = borrow(&cfg.Scratch.ints)
		defer giveBack(&cfg.Scratch.ints, sp)
	}
	rawBytes := float64(len(smp) * 4)
	best, bestRatio := CodeUncompressed, 1.0
	var cands []CandidateEstimate
	if collect {
		cands = append(cands, CandidateEstimate{Code: CodeUncompressed, EstimatedRatio: 1, SampleBytes: 5 + 4*len(smp)})
	}
	for _, code := range intPoolOrder {
		if !cfg.intEnabled(code) || !viable(code, st) {
			continue
		}
		enc := encodeIntAs(nil, smp, sp, code, cfg, depth, rng)
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

// encodeIntAs encodes src with the given root scheme; p is src's profile,
// built here on first need if the caller has not built it.
func encodeIntAs(dst []byte, src []int32, p *stats.Profile[int32], code Code, cfg *Config, depth int, rng *rand.Rand) []byte {
	dst = append(dst, byte(code))
	switch code {
	case CodeUncompressed:
		return encodeIntPlain(dst, src)
	case CodeOneValue:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		return binary.LittleEndian.AppendUint32(dst, uint32(src[0]))
	case CodeRLE:
		values, lengths := runsOfInts(src)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(values)))
		dst = compressInt(dst, values, cfg, depth-1, rng)
		return compressInt(dst, lengths, cfg, depth-1, rng)
	case CodeDict:
		dict, codes := sortedDict(profiled(p, src, cfg))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dict)))
		dst = compressInt(dst, dict, cfg, depth-1, rng)
		return compressInt(dst, codes, cfg, depth-1, rng)
	case CodeFrequency:
		// the dominant value, a bitmap of the rows holding it, and the
		// other rows' values as a cascaded stream
		p = profiled(p, src, cfg)
		bm, exceptions := splitTop(&p.Summary, p.IDs, src)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Vals[p.TopID]))
		dst = bm.AppendTo(dst)
		return compressInt(dst, exceptions, cfg, depth-1, rng)
	case CodeFastBP:
		return bitpack.EncodeFOR(dst, src)
	case CodeFastPFOR:
		return fastpfor.Encode(dst, src)
	}
	panic("unreachable scheme code " + code.String())
}

func encodeIntPlain(dst []byte, src []int32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// runsOfInts splits src into RLE (value, length) arrays. Lengths are
// int32 so they can re-enter the integer cascade.
func runsOfInts(src []int32) (values, lengths []int32) {
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

// DecompressInt decodes one integer stream, appending values to dst and
// returning the number of input bytes consumed.
func DecompressInt(dst []int32, src []byte, cfg *Config) ([]int32, int, error) {
	c := cfg.normalized()
	return decompressInt(dst, src, &c)
}

func decompressInt(dst []int32, src []byte, cfg *Config) ([]int32, int, error) {
	if len(src) < 1 {
		return dst, 0, ErrCorrupt
	}
	code := Code(src[0])
	body := src[1:]
	switch code {
	case CodeUncompressed:
		out, used, err := decodeIntPlain(dst, body)
		return out, used + 1, err
	case CodeOneValue:
		if len(body) < 8 {
			return dst, 0, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(body))
		if n > cfg.maxN() {
			return dst, 0, ErrCorrupt
		}
		v := int32(binary.LittleEndian.Uint32(body[4:]))
		for i := 0; i < n; i++ {
			dst = append(dst, v)
		}
		return dst, 9, nil
	case CodeRLE:
		out, used, err := decodeIntRLE(dst, body, cfg)
		return out, used + 1, err
	case CodeDict:
		out, used, err := decodeIntDict(dst, body, cfg)
		return out, used + 1, err
	case CodeFrequency:
		out, used, err := decodeIntFrequency(dst, body, cfg)
		return out, used + 1, err
	case CodeFastBP:
		decode := bitpack.DecodeFOR
		if cfg.ScalarDecode {
			decode = bitpack.DecodeFORGeneric
		}
		out, used, err := decode(dst, body)
		if err != nil {
			return dst, 0, ErrCorrupt
		}
		return out, used + 1, nil
	case CodeFastPFOR:
		decode := fastpfor.Decode
		if cfg.ScalarDecode {
			decode = fastpfor.DecodeGeneric
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

func decodeIntPlain(dst []int32, src []byte) ([]int32, int, error) {
	if len(src) < 4 {
		return dst, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	if len(src) < 4+4*n {
		return dst, 0, ErrCorrupt
	}
	for i := 0; i < n; i++ {
		dst = append(dst, int32(binary.LittleEndian.Uint32(src[4+4*i:])))
	}
	return dst, 4 + 4*n, nil
}

func decodeIntRLE(dst []int32, src []byte, cfg *Config) ([]int32, int, error) {
	if len(src) < 8 {
		return dst, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	runCount := int(binary.LittleEndian.Uint32(src[4:]))
	if n > cfg.maxN() || runCount > n {
		return dst, 0, ErrCorrupt
	}
	pos := 8
	values, used, err := decompressInt(cfg.Scratch.getInt32(), src[pos:], cfg)
	defer cfg.Scratch.putInt32(values)
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
	dst = append(dst, make([]int32, n)...)
	if cfg.ScalarDecode {
		err = expandRunsScalarInt(dst[out:], values, lengths)
	} else {
		err = expandRunsInt(dst[out:], values, lengths)
	}
	if err != nil {
		return dst, 0, err
	}
	return dst, pos, nil
}

// expandRunsInt is the optimized run expansion: short runs are written
// with an unrolled 4-wide store (the Go analog of the paper's AVX2 run
// replication with overwrite-past-the-end), long runs with doubling copy.
func expandRunsInt(dst []int32, values, lengths []int32) error {
	o := 0
	for r, v := range values {
		l := int(lengths[r])
		if l < 0 || o+l > len(dst) {
			return ErrCorrupt
		}
		target := o + l
		if l <= 16 {
			// Write in groups of 4 past the run end when space allows
			// (the next run overwrites the spill, as in Listing 3).
			for o+4 <= len(dst) && o < target {
				dst[o] = v
				dst[o+1] = v
				dst[o+2] = v
				dst[o+3] = v
				o += 4
			}
			for o < target {
				dst[o] = v
				o++
			}
			o = target
			continue
		}
		run := dst[o:target]
		run[0] = v
		for filled := 1; filled < l; filled *= 2 {
			copy(run[filled:], run[:filled])
		}
		o = target
	}
	if o != len(dst) {
		return ErrCorrupt
	}
	return nil
}

// expandRunsScalarInt is the naive one-element-at-a-time expansion used by
// the scalar ablation.
func expandRunsScalarInt(dst []int32, values, lengths []int32) error {
	o := 0
	for r, v := range values {
		l := int(lengths[r])
		if l < 0 || o+l > len(dst) {
			return ErrCorrupt
		}
		for i := 0; i < l; i++ {
			dst[o] = v
			o++
		}
	}
	if o != len(dst) {
		return ErrCorrupt
	}
	return nil
}

func decodeIntDict(dst []int32, src []byte, cfg *Config) ([]int32, int, error) {
	if len(src) < 8 {
		return dst, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	dictN := int(binary.LittleEndian.Uint32(src[4:]))
	if n > cfg.maxN() || dictN > n {
		return dst, 0, ErrCorrupt
	}
	pos := 8
	dict, used, err := decompressInt(cfg.Scratch.getInt32(), src[pos:], cfg)
	defer cfg.Scratch.putInt32(dict)
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
	dst = append(dst, make([]int32, n)...)
	o := dst[out:]
	if cfg.ScalarDecode {
		for i, c := range codes {
			if int(c) < 0 || int(c) >= dictN {
				return dst, 0, ErrCorrupt
			}
			o[i] = dict[c]
		}
		return dst, pos, nil
	}
	// Optimized gather: 4-wide unrolled lookup (Listing 3 bottom).
	i := 0
	for ; i+4 <= n; i += 4 {
		c0, c1, c2, c3 := codes[i], codes[i+1], codes[i+2], codes[i+3]
		if uint32(c0) >= uint32(dictN) || uint32(c1) >= uint32(dictN) ||
			uint32(c2) >= uint32(dictN) || uint32(c3) >= uint32(dictN) {
			return dst, 0, ErrCorrupt
		}
		o[i] = dict[c0]
		o[i+1] = dict[c1]
		o[i+2] = dict[c2]
		o[i+3] = dict[c3]
	}
	for ; i < n; i++ {
		c := codes[i]
		if uint32(c) >= uint32(dictN) {
			return dst, 0, ErrCorrupt
		}
		o[i] = dict[c]
	}
	return dst, pos, nil
}

func decodeIntFrequency(dst []int32, src []byte, cfg *Config) ([]int32, int, error) {
	if len(src) < 8 {
		return dst, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	if n > cfg.maxN() {
		return dst, 0, ErrCorrupt
	}
	top := int32(binary.LittleEndian.Uint32(src[4:]))
	pos := 8
	bm, used, err := roaring.FromBytes(src[pos:])
	if err != nil {
		return dst, 0, ErrCorrupt
	}
	pos += used
	exceptions, used, err := decompressInt(cfg.Scratch.getInt32(), src[pos:], cfg)
	defer cfg.Scratch.putInt32(exceptions)
	if err != nil {
		return dst, 0, err
	}
	pos += used
	if bm.Cardinality()+len(exceptions) != n {
		return dst, 0, ErrCorrupt
	}
	out := len(dst)
	dst = append(dst, make([]int32, n)...)
	o := dst[out:]
	// Fill the gaps between marked (top-value) positions with exceptions
	// in one ascending pass over the bitmap.
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
