package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"time"

	"btrblocks/internal/pde"
	"btrblocks/internal/roaring"
	"btrblocks/internal/sample"
	"btrblocks/internal/stats"
)

// doublePoolOrder is the fixed candidate order for double schemes; on
// estimate ties the earlier (cheaper to decode) scheme wins. This is the
// double branch of the Figure 3 decision tree.
var doublePoolOrder = []Code{CodeOneValue, CodeDict, CodeRLE, CodeFrequency, CodePDE}

// CompressDouble compresses a block of float64 values into a
// self-describing stream. The round trip is bit-exact (NaN payloads and
// -0.0 included).
func CompressDouble(dst []byte, src []float64, cfg *Config) []byte {
	c := cfg.forCompress()
	return compressDouble(dst, src, &c, c.MaxCascadeDepth, c.rng())
}

// ChooseDouble reports the scheme the selection algorithm picks for src
// and its estimated ratio.
func ChooseDouble(src []float64, cfg *Config) (Code, float64) {
	c := cfg.forCompress()
	p := borrow(&c.Scratch.doubles)
	defer giveBack(&c.Scratch.doubles, p)
	code, est, _ := pickDouble(src, p, &c, c.MaxCascadeDepth, c.rng())
	return code, est
}

func compressDouble(dst []byte, src []float64, cfg *Config, depth int, rng *rand.Rand) []byte {
	p := borrow(&cfg.Scratch.doubles)
	defer giveBack(&cfg.Scratch.doubles, p)
	if cfg.OnDecision == nil {
		code, _, _ := pickDouble(src, p, cfg, depth, rng)
		return encodeDoubleAs(dst, src, p, code, cfg, depth, rng)
	}
	t0 := time.Now()
	code, est, cands := pickDouble(src, p, cfg, depth, rng)
	pickNanos := time.Since(t0).Nanoseconds()
	before := len(dst)
	dst = encodeDoubleAs(dst, src, p, code, cfg, depth, rng)
	cfg.OnDecision(Decision{
		Kind: KindDouble, Level: cfg.MaxCascadeDepth - depth, Code: code,
		Values: len(src), InputBytes: 8 * len(src), OutputBytes: len(dst) - before,
		EstimatedRatio: est, PickNanos: pickNanos, Candidates: cands,
	})
	return dst
}

// EstimateOnlyDouble mirrors EstimateOnlyInt for doubles.
func EstimateOnlyDouble(src []float64, cfg *Config) {
	ChooseDouble(src, cfg)
}

func pickDouble(src []float64, p *stats.Profile[uint64], cfg *Config, depth int, rng *rand.Rand) (Code, float64, []CandidateEstimate) {
	if depth <= 0 || len(src) == 0 {
		return CodeUncompressed, 1, nil
	}
	collect := cfg.OnDecision != nil
	cfg = quiet(cfg)
	st := &profiledDoubles(p, src, cfg).Summary
	if st.Distinct == 1 && cfg.doubleEnabled(CodeOneValue) {
		est := float64(len(src)*8) / 13
		var cands []CandidateEstimate
		if collect {
			cands = []CandidateEstimate{{Code: CodeOneValue, EstimatedRatio: est}}
		}
		return CodeOneValue, est, cands
	}
	smp := sample.Doubles(src, cfg.Sample, rng)
	sp := p
	if len(smp) != len(src) {
		sp = borrow(&cfg.Scratch.doubles)
		defer giveBack(&cfg.Scratch.doubles, sp)
	}
	rawBytes := float64(len(smp) * 8)
	best, bestRatio := CodeUncompressed, 1.0
	var cands []CandidateEstimate
	if collect {
		cands = append(cands, CandidateEstimate{Code: CodeUncompressed, EstimatedRatio: 1, SampleBytes: 5 + 8*len(smp)})
	}
	for _, code := range doublePoolOrder {
		if !cfg.doubleEnabled(code) || !viable(code, st) {
			continue
		}
		enc := encodeDoubleAs(nil, smp, sp, code, cfg, depth, rng)
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

func encodeDoubleAs(dst []byte, src []float64, p *stats.Profile[uint64], code Code, cfg *Config, depth int, rng *rand.Rand) []byte {
	dst = append(dst, byte(code))
	switch code {
	case CodeUncompressed:
		return encodeDoublePlain(dst, src)
	case CodeOneValue:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(src[0]))
	case CodeRLE:
		values, lengths := runsOfDoubles(src)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(values)))
		dst = compressDouble(dst, values, cfg, depth-1, rng)
		return compressInt(dst, lengths, cfg, depth-1, rng)
	case CodeDict:
		// Bit-pattern identity keeps NaNs and -0.0 as distinct dictionary
		// entries, sorted by bit pattern for determinism.
		bits, codes := sortedDict(profiledDoubles(p, src, cfg))
		dict := make([]float64, len(bits))
		for i, b := range bits {
			dict[i] = math.Float64frombits(b)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dict)))
		dst = compressDouble(dst, dict, cfg, depth-1, rng)
		return compressInt(dst, codes, cfg, depth-1, rng)
	case CodeFrequency:
		// the dominant value, a bitmap of the rows holding it, and the
		// other rows' values as a cascaded stream
		p = profiledDoubles(p, src, cfg)
		bm, exceptions := splitTop(&p.Summary, p.IDs, src)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		dst = binary.LittleEndian.AppendUint64(dst, p.Vals[p.TopID])
		dst = bm.AppendTo(dst)
		return compressDouble(dst, exceptions, cfg, depth-1, rng)
	case CodePDE:
		return encodeDoublePDE(dst, src, cfg, depth, rng)
	}
	panic("unreachable scheme code " + code.String())
}

func encodeDoublePlain(dst []byte, src []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// runsOfDoubles splits src into (value, length) arrays using bit equality
// so NaN runs and -0.0/0.0 distinctions survive the round trip.
func runsOfDoubles(src []float64) (values []float64, lengths []int32) {
	if len(src) == 0 {
		return nil, nil
	}
	cur := math.Float64bits(src[0])
	n := int32(0)
	for _, v := range src {
		b := math.Float64bits(v)
		if b == cur {
			n++
			continue
		}
		values = append(values, math.Float64frombits(cur))
		lengths = append(lengths, n)
		cur, n = b, 1
	}
	values = append(values, math.Float64frombits(cur))
	lengths = append(lengths, n)
	return values, lengths
}

// encodeDoublePDE applies Pseudodecimal Encoding and cascades the digits
// and exponent columns back into the integer scheme pool (§4.2).
func encodeDoublePDE(dst []byte, src []float64, cfg *Config, depth int, rng *rand.Rand) []byte {
	digits, exps, patches, patchIdx := pde.Encode(src)
	bm := roaring.New()
	for _, i := range patchIdx {
		bm.Add(i)
	}
	bm.RunOptimize()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
	dst = compressInt(dst, digits, cfg, depth-1, rng)
	dst = compressInt(dst, exps, cfg, depth-1, rng)
	dst = bm.AppendTo(dst)
	for _, p := range patches {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p))
	}
	return dst
}

// DecompressDouble decodes one double stream, appending values to dst and
// returning the number of input bytes consumed.
func DecompressDouble(dst []float64, src []byte, cfg *Config) ([]float64, int, error) {
	c := cfg.normalized()
	return decompressDouble(dst, src, &c)
}

func decompressDouble(dst []float64, src []byte, cfg *Config) ([]float64, int, error) {
	if len(src) < 1 {
		return dst, 0, ErrCorrupt
	}
	code := Code(src[0])
	body := src[1:]
	switch code {
	case CodeUncompressed:
		out, used, err := decodeDoublePlain(dst, body)
		return out, used + 1, err
	case CodeOneValue:
		if len(body) < 12 {
			return dst, 0, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(body))
		if n > cfg.maxN() {
			return dst, 0, ErrCorrupt
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(body[4:]))
		for i := 0; i < n; i++ {
			dst = append(dst, v)
		}
		return dst, 13, nil
	case CodeRLE:
		out, used, err := decodeDoubleRLE(dst, body, cfg)
		return out, used + 1, err
	case CodeDict:
		out, used, err := decodeDoubleDict(dst, body, cfg)
		return out, used + 1, err
	case CodeFrequency:
		out, used, err := decodeDoubleFrequency(dst, body, cfg)
		return out, used + 1, err
	case CodePDE:
		out, used, err := decodeDoublePDE(dst, body, cfg)
		return out, used + 1, err
	default:
		return dst, 0, ErrCorrupt
	}
}

func decodeDoublePlain(dst []float64, src []byte) ([]float64, int, error) {
	if len(src) < 4 {
		return dst, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	if n > maxBlockValues || len(src) < 4+8*n {
		return dst, 0, ErrCorrupt
	}
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(src[4+8*i:])))
	}
	return dst, 4 + 8*n, nil
}

func decodeDoubleRLE(dst []float64, src []byte, cfg *Config) ([]float64, int, error) {
	if len(src) < 8 {
		return dst, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	runCount := int(binary.LittleEndian.Uint32(src[4:]))
	if n > cfg.maxN() || runCount > n {
		return dst, 0, ErrCorrupt
	}
	pos := 8
	values, used, err := decompressDouble(cfg.Scratch.getFloat64(), src[pos:], cfg)
	defer cfg.Scratch.putFloat64(values)
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
	dst = append(dst, make([]float64, n)...)
	if cfg.ScalarDecode {
		err = expandRunsScalarDouble(dst[out:], values, lengths)
	} else {
		err = expandRunsDouble(dst[out:], values, lengths)
	}
	if err != nil {
		return dst, 0, err
	}
	return dst, pos, nil
}

func expandRunsDouble(dst []float64, values []float64, lengths []int32) error {
	o := 0
	for r, v := range values {
		l := int(lengths[r])
		if l < 0 || o+l > len(dst) {
			return ErrCorrupt
		}
		target := o + l
		if l <= 16 {
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

func expandRunsScalarDouble(dst []float64, values []float64, lengths []int32) error {
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

func decodeDoubleDict(dst []float64, src []byte, cfg *Config) ([]float64, int, error) {
	if len(src) < 8 {
		return dst, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	dictN := int(binary.LittleEndian.Uint32(src[4:]))
	if n > cfg.maxN() || dictN > n {
		return dst, 0, ErrCorrupt
	}
	pos := 8
	dict, used, err := decompressDouble(cfg.Scratch.getFloat64(), src[pos:], cfg)
	defer cfg.Scratch.putFloat64(dict)
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
	dst = append(dst, make([]float64, n)...)
	o := dst[out:]
	if cfg.ScalarDecode {
		for i, c := range codes {
			if uint32(c) >= uint32(dictN) {
				return dst, 0, ErrCorrupt
			}
			o[i] = dict[c]
		}
		return dst, pos, nil
	}
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

func decodeDoubleFrequency(dst []float64, src []byte, cfg *Config) ([]float64, int, error) {
	if len(src) < 12 {
		return dst, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	if n > cfg.maxN() {
		return dst, 0, ErrCorrupt
	}
	top := math.Float64frombits(binary.LittleEndian.Uint64(src[4:]))
	pos := 12
	bm, used, err := roaring.FromBytes(src[pos:])
	if err != nil {
		return dst, 0, ErrCorrupt
	}
	pos += used
	exceptions, used, err := decompressDouble(cfg.Scratch.getFloat64(), src[pos:], cfg)
	defer cfg.Scratch.putFloat64(exceptions)
	if err != nil {
		return dst, 0, err
	}
	pos += used
	if bm.Cardinality()+len(exceptions) != n {
		return dst, 0, ErrCorrupt
	}
	out := len(dst)
	dst = append(dst, make([]float64, n)...)
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

func decodeDoublePDE(dst []float64, src []byte, cfg *Config) ([]float64, int, error) {
	if len(src) < 4 {
		return dst, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	if n > cfg.maxN() {
		return dst, 0, ErrCorrupt
	}
	pos := 4
	digits, used, err := decompressInt(cfg.Scratch.getInt32(), src[pos:], cfg)
	defer cfg.Scratch.putInt32(digits)
	if err != nil {
		return dst, 0, err
	}
	pos += used
	exps, used, err := decompressInt(cfg.Scratch.getInt32(), src[pos:], cfg)
	defer cfg.Scratch.putInt32(exps)
	if err != nil {
		return dst, 0, err
	}
	pos += used
	if len(digits) != n || len(exps) != n {
		return dst, 0, ErrCorrupt
	}
	bm, used, err := roaring.FromBytes(src[pos:])
	if err != nil {
		return dst, 0, ErrCorrupt
	}
	pos += used
	patchCount := bm.Cardinality()
	if len(src) < pos+8*patchCount {
		return dst, 0, ErrCorrupt
	}
	patches := make([]float64, patchCount)
	for i := range patches {
		patches[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[pos:]))
		pos += 8
	}
	// Validate the exponent column before trusting it as an index.
	exCount := 0
	for _, e := range exps {
		if e < 0 || e > pde.ExceptionExponent {
			return dst, 0, ErrCorrupt
		}
		if e == pde.ExceptionExponent {
			exCount++
		}
	}
	if exCount != patchCount {
		return dst, 0, ErrCorrupt
	}
	if cfg.ScalarDecode {
		return pde.DecodeScalar(dst, digits, exps, patches), pos, nil
	}
	return pde.Decode(dst, digits, exps, patches, bm.ToArray()), pos, nil
}
