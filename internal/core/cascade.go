package core

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"time"

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

// Compress compresses a block of values into a self-describing stream
// using sampling-based scheme selection with cascading.
func (t *Numeric[T, K]) Compress(dst []byte, src []T, cfg *Config) []byte {
	c := cfg.forCompress()
	return t.compress(dst, src, &c, c.MaxCascadeDepth, c.rng())
}

// Choose reports which scheme the selection algorithm would pick for src
// and the estimated compression ratio, without compressing the block: the
// statistics + sampling + per-scheme estimation of §3.1 alone.
func (t *Numeric[T, K]) Choose(src []T, cfg *Config) (Code, float64) {
	c := cfg.forCompress()
	free := &t.scratch(c.Scratch).profiles
	p := borrow(free)
	defer giveBack(free, p)
	code, est, _ := t.pick(src, p, &c, c.MaxCascadeDepth, c.rng())
	return code, est
}

// CompressAs forces a specific root scheme (sub-streams still go through
// normal selection). Returns nil if the scheme is not applicable to the
// data (e.g. OneValue on a multi-value block). Used by the
// sampling-accuracy experiments, which need the exhaustive-best scheme as
// ground truth, and by tests that must reach one scheme's code paths.
func (t *Numeric[T, K]) CompressAs(dst []byte, src []T, code Code, cfg *Config) []byte {
	c := cfg.forCompress()
	free := &t.scratch(c.Scratch).profiles
	p := borrow(free)
	defer giveBack(free, p)
	if code != CodeUncompressed && (len(src) == 0 || !slices.Contains(t.pool, code)) ||
		code == CodeOneValue && t.profiled(p, src, &c).Distinct != 1 {
		return nil
	}
	return t.encodeAs(dst, src, p, code, &c, c.MaxCascadeDepth, c.rng())
}

// compress picks a scheme for src and encodes it. The stream's profile is
// built at most once and shared by the picker and the winning encoder.
func (t *Numeric[T, K]) compress(dst []byte, src []T, cfg *Config, depth int, rng *rand.Rand) []byte {
	free := &t.scratch(cfg.Scratch).profiles
	p := borrow(free)
	defer giveBack(free, p)
	if cfg.OnDecision == nil {
		code, _, _ := t.pick(src, p, cfg, depth, rng)
		return t.encodeAs(dst, src, p, code, cfg, depth, rng)
	}
	t0 := time.Now()
	code, est, cands := t.pick(src, p, cfg, depth, rng)
	pickNanos := time.Since(t0).Nanoseconds()
	before := len(dst)
	dst = t.encodeAs(dst, src, p, code, cfg, depth, rng)
	cfg.OnDecision(Decision{
		Kind: t.kind, Level: cfg.MaxCascadeDepth - depth, Code: code,
		Values: len(src), InputBytes: t.width * len(src), OutputBytes: len(dst) - before,
		EstimatedRatio: est, PickNanos: pickNanos, Candidates: cands,
	})
	return dst
}

// profiled returns p built over src. The picker and the encoders all ask
// through here, so a stream is hashed once however many of them need it.
func (t *Numeric[T, K]) profiled(p *stats.Profile[K], src []T, cfg *Config) *stats.Profile[K] {
	if !p.Built {
		p.Build(t.keys(src, cfg.Scratch), &cfg.Scratch.table)
	}
	return p
}

// pick is the scheme-picking algorithm of Listing 1: filter by statistics,
// estimate each viable scheme's ratio on a sample, take the best. Depth 0
// always yields Uncompressed. Candidate estimates are collected only when
// the caller's decision hook is set, so the default path allocates nothing
// extra. p is the (possibly not yet built) profile of src; the trial
// encodes share one profile of the sample the same way.
func (t *Numeric[T, K]) pick(src []T, p *stats.Profile[K], cfg *Config, depth int, rng *rand.Rand) (Code, float64, []CandidateEstimate) {
	if depth <= 0 || len(src) == 0 {
		return CodeUncompressed, 1, nil
	}
	collect := cfg.OnDecision != nil
	cfg = quiet(cfg)
	allowed := t.allow(cfg)
	st := &t.profiled(p, src, cfg).Summary
	if st.Distinct == 1 && enabled(allowed, CodeOneValue) {
		est := float64(len(src)*t.width) / float64(5+t.width)
		var cands []CandidateEstimate
		if collect {
			cands = []CandidateEstimate{{Code: CodeOneValue, EstimatedRatio: est}}
		}
		return CodeOneValue, est, cands
	}
	smp := sample.Values(src, cfg.Sample, rng)
	sp := p // a block no larger than the sample is its own sample
	if len(smp) != len(src) {
		free := &t.scratch(cfg.Scratch).profiles
		sp = borrow(free)
		defer giveBack(free, sp)
	}
	rawBytes := float64(len(smp) * t.width)
	best, bestRatio := CodeUncompressed, 1.0
	var cands []CandidateEstimate
	if collect {
		cands = append(cands, CandidateEstimate{Code: CodeUncompressed, EstimatedRatio: 1, SampleBytes: 5 + t.width*len(smp)})
	}
	for _, code := range t.pool {
		if !enabled(allowed, code) || !viable(code, st) {
			continue
		}
		enc := t.encodeAs(nil, smp, sp, code, cfg, depth, rng)
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

// encodeAs encodes src with the given root scheme; p is src's profile,
// built here on first need if the caller has not built it.
func (t *Numeric[T, K]) encodeAs(dst []byte, src []T, p *stats.Profile[K], code Code, cfg *Config, depth int, rng *rand.Rand) []byte {
	dst = append(dst, byte(code))
	switch code {
	case CodeUncompressed:
		return t.put(binary.LittleEndian.AppendUint32(dst, uint32(len(src))), src)
	case CodeOneValue:
		return t.put(binary.LittleEndian.AppendUint32(dst, uint32(len(src))), src[:1])
	case CodeRLE:
		values, lengths := t.runs(src)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(values)))
		dst = t.compress(dst, values, cfg, depth-1, rng)
		return Int.compress(dst, lengths, cfg, depth-1, rng)
	case CodeDict:
		// Key identity keeps NaNs and -0.0 as distinct dictionary entries,
		// sorted by bit pattern for determinism.
		keys, codes := sortedDict(t.profiled(p, src, cfg))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
		dst = t.compress(dst, t.vals(keys), cfg, depth-1, rng)
		return Int.compress(dst, codes, cfg, depth-1, rng)
	case CodeFrequency:
		// the dominant value, a bitmap of the rows holding it, and the
		// other rows' values as a cascaded stream
		p = t.profiled(p, src, cfg)
		topRow, bm, exceptions := splitTop(&p.Summary, p.IDs, src)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
		dst = t.put(dst, src[topRow:topRow+1])
		dst = bm.AppendTo(dst)
		return t.compress(dst, exceptions, cfg, depth-1, rng)
	}
	return t.encodeLeaf(dst, src, code, cfg, depth, rng)
}

// runsOf splits src into RLE (value, length) arrays. Lengths are int32 so
// they can re-enter the integer cascade.
func runsOf[T integer](src []T) (values []T, lengths []int32) {
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
	return append(values, cur), append(lengths, n)
}
