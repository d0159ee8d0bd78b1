package core

import (
	"encoding/binary"
	"slices"

	"btrblocks/internal/roaring"
)

// Decompress decodes one stream, appending values to dst and returning
// the number of input bytes consumed.
func (t *Numeric[T, K]) Decompress(dst []T, src []byte, cfg *Config) ([]T, int, error) {
	c := cfg.normalized()
	return t.decompress(dst, src, &c)
}

func (t *Numeric[T, K]) decompress(dst []T, src []byte, cfg *Config) ([]T, int, error) {
	if len(src) < 1 {
		return dst, 0, ErrCorrupt
	}
	code, body := Code(src[0]), src[1:]
	switch code {
	case CodeUncompressed:
		if len(body) < 4 {
			return dst, 0, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(body))
		end := 4 + t.width*n
		if n > maxBlockValues || len(body) < end {
			return dst, 0, ErrCorrupt
		}
		return t.get(dst, body[4:end]), 1 + end, nil
	case CodeOneValue:
		n, v, err := t.oneValue(src, cfg)
		if err != nil {
			return dst, 0, err
		}
		for i := 0; i < n; i++ {
			dst = append(dst, v)
		}
		return dst, 5 + t.width, nil
	case CodeRLE:
		n, values, lengths, used, err := t.runParts(src, cfg)
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
	case CodeDict:
		dict, codes, used, err := t.dictParts(src, cfg)
		if err != nil {
			return dst, 0, err
		}
		defer t.putBuf(cfg.Scratch, dict)
		defer Int.putBuf(cfg.Scratch, codes)
		out := len(dst)
		dst = grow(dst, len(codes))
		if !gather(dst[out:], dict, codes, cfg.ScalarDecode) {
			return dst, 0, ErrCorrupt
		}
		return dst, used, nil
	case CodeFrequency:
		n, top, bm, pos, err := t.frequencyHead(src, cfg)
		if err != nil {
			return dst, 0, err
		}
		exceptions, used, err := t.decompress(t.buf(cfg.Scratch), src[pos:], cfg)
		defer t.putBuf(cfg.Scratch, exceptions)
		if err != nil {
			return dst, 0, err
		}
		if bm.Cardinality()+len(exceptions) != n {
			return dst, 0, ErrCorrupt
		}
		out := len(dst)
		dst = grow(dst, n)
		// Patch: the top value at the marked rows, the exceptions, in
		// order, in the gaps between them.
		o := dst[out:]
		err = frequencySpans(n, bm, func(lo, hi int, isTop bool) {
			if !isTop {
				exceptions = exceptions[copy(o[lo:hi], exceptions):]
				return
			}
			for i := lo; i < hi; i++ {
				o[i] = top
			}
		})
		if err != nil {
			return dst, 0, err
		}
		return dst, pos + used, nil
	}
	out, used, err := t.decodeLeaf(dst, body, code, cfg)
	if err != nil {
		return dst, 0, ErrCorrupt
	}
	return out, used + 1, nil
}

// grow extends dst by n values the caller is about to write, every one of
// them: within dst's capacity they are not cleared first, so a decoder
// handed its range of a column writes that range once.
func grow[T any](dst []T, n int) []T { return slices.Grow(dst, n)[:len(dst)+n] }

// oneValue reads a OneValue stream: its row count and its value.
func (t *Numeric[T, K]) oneValue(src []byte, cfg *Config) (n int, v T, err error) {
	if len(src) < 5+t.width {
		return 0, v, ErrCorrupt
	}
	if n = int(binary.LittleEndian.Uint32(src[1:])); n > cfg.maxN() {
		return 0, v, ErrCorrupt
	}
	return n, t.one(src[5:]), nil
}

// runParts decodes the two sub-streams of an RLE stream without expanding
// them, and checks the run lengths against the header — none negative, n
// rows in all — so that whoever walks the runs need not. The arrays are
// arena-backed: the caller returns values with t.putBuf and lengths with
// Int.putBuf when done.
func (t *Numeric[T, K]) runParts(src []byte, cfg *Config) (n int, values []T, lengths []int32, used int, err error) {
	if len(src) < 9 || Code(src[0]) != CodeRLE {
		return 0, nil, nil, 0, ErrCorrupt
	}
	n = int(binary.LittleEndian.Uint32(src[1:]))
	runCount := int(binary.LittleEndian.Uint32(src[5:]))
	if n > cfg.maxN() || runCount > n {
		return 0, nil, nil, 0, ErrCorrupt
	}
	pos := 9
	values, used, err = t.decompress(t.buf(cfg.Scratch), src[pos:], cfg)
	if err == nil {
		pos += used
		lengths, used, err = Int.decompress(Int.buf(cfg.Scratch), src[pos:], cfg)
		pos += used
	}
	if err == nil && (len(values) != runCount || len(lengths) != runCount) {
		err = ErrCorrupt
	}
	rows, signs := 0, int32(0)
	for _, l := range lengths {
		rows += int(l)
		signs |= l
	}
	if err == nil && (signs < 0 || rows != n) {
		err = ErrCorrupt
	}
	if err != nil {
		t.putBuf(cfg.Scratch, values)
		Int.putBuf(cfg.Scratch, lengths)
		return 0, nil, nil, 0, err
	}
	return n, values, lengths, pos, nil
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

// dictHead reads a Dict stream's header and decodes its dictionary; the
// codes stream starts at src[pos:]. The caller returns dict with putBuf.
func (t *Numeric[T, K]) dictHead(src []byte, cfg *Config) (n int, dict []T, pos int, err error) {
	if len(src) < 9 {
		return 0, nil, 0, ErrCorrupt
	}
	n = int(binary.LittleEndian.Uint32(src[1:]))
	dictN := int(binary.LittleEndian.Uint32(src[5:]))
	if n > cfg.maxN() || dictN > n {
		return 0, nil, 0, ErrCorrupt
	}
	dict, used, err := t.decompress(t.buf(cfg.Scratch), src[9:], cfg)
	if err == nil && len(dict) != dictN {
		err = ErrCorrupt
	}
	if err != nil {
		t.putBuf(cfg.Scratch, dict)
		return 0, nil, 0, err
	}
	return n, dict, 9 + used, nil
}

// dictParts decodes both sub-streams of a Dict stream: the dictionary and
// one code per row (not yet checked against the dictionary's size).
func (t *Numeric[T, K]) dictParts(src []byte, cfg *Config) (dict []T, codes []int32, used int, err error) {
	n, dict, pos, err := t.dictHead(src, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	codes, used, err = Int.decompress(Int.buf(cfg.Scratch), src[pos:], cfg)
	if err == nil && len(codes) != n {
		err = ErrCorrupt
	}
	if err != nil {
		t.putBuf(cfg.Scratch, dict)
		Int.putBuf(cfg.Scratch, codes)
		return nil, nil, 0, err
	}
	return dict, codes, pos + used, nil
}

// gather is the dictionary lookup o[i] = dict[codes[i]], unrolled 4-wide
// (Listing 3 bottom) unless scalar. It reports false on a code outside
// the dictionary.
func gather[T numeric](o, dict []T, codes []int32, scalar bool) bool {
	dictN, n, i := len(dict), len(codes), 0
	for ; !scalar && i+4 <= n; i += 4 {
		c0, c1, c2, c3 := codes[i], codes[i+1], codes[i+2], codes[i+3]
		if uint32(c0) >= uint32(dictN) || uint32(c1) >= uint32(dictN) ||
			uint32(c2) >= uint32(dictN) || uint32(c3) >= uint32(dictN) {
			return false
		}
		o[i] = dict[c0]
		o[i+1] = dict[c1]
		o[i+2] = dict[c2]
		o[i+3] = dict[c3]
	}
	for ; i < n; i++ {
		c := codes[i]
		if uint32(c) >= uint32(dictN) {
			return false
		}
		o[i] = dict[c]
	}
	return true
}

// frequencyHead reads a Frequency stream up to its exceptions stream,
// which starts at src[pos:]: the row count, the top value and the bitmap
// of the rows holding it.
func (t *Numeric[T, K]) frequencyHead(src []byte, cfg *Config) (n int, top T, bm *roaring.Bitmap, pos int, err error) {
	if n, top, err = t.oneValue(src, cfg); err != nil {
		return 0, top, nil, 0, err
	}
	pos = 5 + t.width
	bm, used, err := roaring.FromBytes(src[pos:])
	if err != nil {
		return 0, top, nil, 0, ErrCorrupt
	}
	return n, top, bm, pos + used, nil
}

// frequencySpans walks the n rows of a Frequency stream in order as spans
// [lo, hi) that either all hold the top value (the rows bm marks) or all
// hold exceptions (the gaps between them; the k-th exception row overall
// holds exception k). Decoding, selection and ordered folds share this
// walk and bring their own values.
func frequencySpans(n int, bm *roaring.Bitmap, span func(lo, hi int, isTop bool)) error {
	next := 0 // the first row not yet walked
	bm.ForEachRange(func(lo, hi uint64) bool {
		if hi > uint64(n) {
			next = n + 1
			return false
		}
		if int(lo) > next {
			span(next, int(lo), false)
		}
		span(int(lo), int(hi), true)
		next = int(hi)
		return true
	})
	if next > n {
		return ErrCorrupt
	}
	if next < n {
		span(next, n, false)
	}
	return nil
}
