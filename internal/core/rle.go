package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"btrblocks/internal/stats"
)

// RLE: the stream's runs as two streams, the run values (of the parent's
// kind) and the run lengths (int32).
//
//	tag n:u32 runs:u32 values:stream lengths:stream

func rle[T numeric, K stats.Key](t *Numeric[T, K]) *numScheme[T, K] {
	return &numScheme[T, K]{code: CodeRLE,
		viable: func(p *stats.Profile[K]) bool { return p.AvgRunLen() >= 2 },
		runs:   t.runParts,
		encode: func(dst []byte, src []T, _ *numProfile[T, K], cfg *Config, depth int, rng *rand.Rand) []byte {
			values, lengths := t.runs(src)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(values)))
			dst = compress(t, dst, values, cfg, depth-1, rng)
			return compress(Int, dst, lengths, cfg, depth-1, rng)
		},
		decode: func(dst []T, src []byte, n int, cfg *Config) ([]T, int, error) {
			values, lengths, used, err := t.runParts(src, n, cfg)
			if err != nil {
				return dst, 0, err
			}
			defer t.putBuf(cfg.Scratch, values)
			defer Int.putBuf(cfg.Scratch, lengths)
			out := len(dst)
			dst = grow(dst, n)
			if cfg.ScalarDecode {
				expandRunsScalar(dst[out:], values, lengths)
			} else {
				expandRuns(dst[out:], values, lengths)
			}
			return dst, used, nil
		},
		scan: func(src []byte, n int, m Matcher[T], sel []uint64, st *SelectStats, cfg *Config) (count, used int, err error) {
			values, lengths, used, err := t.runParts(src, n, cfg)
			if err != nil {
				return 0, 0, err
			}
			defer t.putBuf(cfg.Scratch, values)
			defer Int.putBuf(cfg.Scratch, lengths)
			st.RLE.Add(1)
			row := 0
			for i, rv := range values {
				count += matchAll(m.Match(rv), row, row+int(lengths[i]), sel)
				row += int(lengths[i])
			}
			return count, used, nil
		},
		aggregate: func(src []byte, n int, sel []uint64, acc Folder[T], st *SelectStats, cfg *Config) (int, error) {
			values, lengths, used, err := t.runParts(src, n, cfg)
			if err != nil {
				return 0, err
			}
			defer t.putBuf(cfg.Scratch, values)
			defer Int.putBuf(cfg.Scratch, lengths)
			st.AggFast.Add(1)
			row := 0
			for i, rv := range values {
				acc.FoldRun(rv, onesIn(sel, row, row+int(lengths[i])))
				row += int(lengths[i])
			}
			return used, nil
		},
		walk: func(l *Layout, src []byte) error {
			runs, err := subCount(src, l.Values)
			if err != nil {
				return err
			}
			l.HeaderBytes += 4
			l.Detail = fmt.Sprintf("%d runs", runs)
			_, err = l.walkSubs(src, 9, sub{t, "run values", runs}, sub{Int, "run lengths", runs})
			return err
		},
	}
}

// runParts decodes the two sub-streams of an RLE stream of n rows without
// expanding them, and checks the run lengths against the header — none
// negative, n rows in all — so that whoever walks the runs need not. The
// arrays are arena-backed: the caller returns values with t.putBuf and
// lengths with Int.putBuf when done.
func (t *Numeric[T, K]) runParts(src []byte, n int, cfg *Config) (values []T, lengths []int32, used int, err error) {
	runs, err := subCount(src, n)
	if err != nil {
		return nil, nil, 0, err
	}
	pos := 9
	values, used, err = t.Decompress(t.buf(cfg.Scratch), src[pos:], cfg)
	if err == nil {
		pos += used
		lengths, used, err = Int.Decompress(Int.buf(cfg.Scratch), src[pos:], cfg)
		pos += used
	}
	if err == nil && (len(values) != runs || len(lengths) != runs) {
		err = ErrCorrupt
	}
	if rows, ok := sumLengths(lengths); err == nil && (!ok || rows != n) {
		err = ErrCorrupt
	}
	if err != nil {
		t.putBuf(cfg.Scratch, values)
		Int.putBuf(cfg.Scratch, lengths)
		return nil, nil, 0, err
	}
	return values, lengths, pos, nil
}

// sumLengths sums run or string lengths; ok is false if one is negative.
func sumLengths(lengths []int32) (sum int, ok bool) {
	signs := int32(0)
	for _, l := range lengths {
		sum += int(l)
		signs |= l
	}
	return sum, signs >= 0
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

// expandRuns writes each value lengths[r] times; the lengths are
// runParts-checked to fill dst exactly. Short runs are written with an
// unrolled 4-wide store (the Go analog of the paper's AVX2 run replication
// with overwrite-past-the-end), long runs with a doubling copy.
func expandRuns[T numeric](dst, values []T, lengths []int32) {
	o := 0
	for r, v := range values {
		l := int(lengths[r])
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
		dst[o] = v
		replicate(dst[o:target], 1)
		o = target
	}
}

// expandRunsScalar is the naive one-element-at-a-time expansion used by
// the scalar ablation (§6.8).
func expandRunsScalar[T numeric](dst, values []T, lengths []int32) {
	o := 0
	for r, v := range values {
		for end := o + int(lengths[r]); o < end; o++ {
			dst[o] = v
		}
	}
}
