package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"btrblocks/coldata"
	"btrblocks/internal/roaring"
	"btrblocks/internal/stats"
)

// Dictionary: the distinct values in ascending order, and per row the
// rank of its value, as streams. Predicates map over the sorted dictionary
// to a predicate on the codes.
//
//	numeric: tag n:u32 dictN:u32 dict:stream codes:stream
//	string:  tag n:u32 dictN:u32 poolKind:u8 pool lengths:stream codes:stream
//
// A string pool is poolRaw len:u32 bytes[len], or poolFSST and the pool
// FSST-compressed (see fsst.go); its entries' lengths are the lengths
// stream.
const (
	poolRaw  = 0
	poolFSST = 1
)

func dictViable(s *stats.Summary) bool { return s.Distinct > 1 && s.Distinct < s.N }

func dict[T numeric, K stats.Key](t *Numeric[T, K]) *numScheme[T, K] {
	return &numScheme[T, K]{code: CodeDict,
		viable: func(p *stats.Profile[K]) bool { return dictViable(&p.Summary) },
		encode: func(dst []byte, src []T, p *stats.Profile[K], cfg *Config, depth int, rng *rand.Rand) []byte {
			// Key identity keeps NaNs and -0.0 as distinct dictionary
			// entries, sorted by bit pattern for determinism.
			t.profile(p, src, cfg)
			keys, codes := sortedDict(p)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
			dst = compress(t, dst, t.vals(keys), cfg, depth-1, rng)
			return compress(Int, dst, codes, cfg, depth-1, rng)
		},
		decode: func(dst []T, src []byte, n int, cfg *Config) ([]T, int, error) {
			dict, codes, used, err := t.dictParts(src, n, cfg)
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
		},
		scan: func(src []byte, n int, m Matcher[T], base uint32, out *roaring.Bitmap, st *SelectStats, cfg *Config) (int, int, error) {
			dict, pos, err := t.dictHead(src, n, cfg)
			if err != nil {
				return 0, 0, err
			}
			defer t.putBuf(cfg.Scratch, dict)
			st.Dict.Add(1)
			count, used, err := Int.scan(src[pos:], m.codes(dict), base, out, st, cfg)
			return count, pos + used, err
		},
		aggregate: func(src []byte, n int, acc Folder[T], st *SelectStats, cfg *Config) (int, error) {
			dict, codes, used, err := t.dictParts(src, n, cfg)
			if err != nil {
				return 0, err
			}
			defer t.putBuf(cfg.Scratch, dict)
			defer Int.putBuf(cfg.Scratch, codes)
			st.AggFast.Add(1)
			if !acc.foldDict(dict, codes) {
				return 0, ErrCorrupt
			}
			return used, nil
		},
		walk: func(l *Layout, src []byte) error {
			dictN, err := subCount(src, l.Values)
			if err != nil {
				return err
			}
			l.HeaderBytes += 4
			l.Detail = fmt.Sprintf("%d distinct", dictN)
			_, err = l.walkSubs(src, 9, sub{t, "dictionary", dictN}, sub{Int, "codes", l.Values})
			return err
		},
	}
}

// dictHead decodes the dictionary of a Dict stream of n rows; the codes
// stream starts at src[pos:]. The caller returns dict with putBuf.
func (t *Numeric[T, K]) dictHead(src []byte, n int, cfg *Config) (dict []T, pos int, err error) {
	dictN, err := subCount(src, n)
	if err != nil {
		return nil, 0, err
	}
	dict, used, err := t.Decompress(t.buf(cfg.Scratch), src[9:], cfg)
	if err == nil && len(dict) != dictN {
		err = ErrCorrupt
	}
	if err != nil {
		t.putBuf(cfg.Scratch, dict)
		return nil, 0, err
	}
	return dict, 9 + used, nil
}

// dictParts decodes both sub-streams of a Dict stream: the dictionary and
// one code per row (not yet checked against the dictionary's size).
func (t *Numeric[T, K]) dictParts(src []byte, n int, cfg *Config) (dict []T, codes []int32, used int, err error) {
	dict, pos, err := t.dictHead(src, n, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	codes, used, err = Int.Decompress(Int.buf(cfg.Scratch), src[pos:], cfg)
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

// sortedDict turns a profile into a dictionary: the distinct values in
// ascending order (which keeps the dictionary itself compressible with
// FOR) and, per row, the rank of its value.
func sortedDict[K stats.Key](p *stats.Profile[K]) (dict []K, codes []int32) {
	dict = slices.Clone(p.Vals)
	slices.Sort(dict)
	rank := make([]int32, len(dict))
	for id, v := range p.Vals {
		i, _ := slices.BinarySearch(dict, v)
		rank[id] = int32(i)
	}
	codes = make([]int32, len(p.IDs))
	for i, id := range p.IDs {
		codes[i] = rank[id]
	}
	return dict, codes
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

var stringDict = &strScheme{code: CodeDict,
	viable: func(p *stats.StringProfile) bool { return dictViable(&p.Summary) },
	encode: encodeStringDict,
	parse:  parseStringDict,
	scan: func(src []byte, n int, p *StringPred, base uint32, out *roaring.Bitmap, st *SelectStats, cfg *Config) (count, used int, err error) {
		pool, starts, codesOff, err := stringDictHead(src, n, cfg, false)
		if err != nil {
			return 0, 0, err
		}
		var codes []int32
		for i := 0; i+1 < len(starts); i++ {
			if p.Match(pool[starts[i]:starts[i+1]]) {
				codes = append(codes, int32(i))
			}
		}
		Int.putBuf(cfg.Scratch, starts)
		st.Dict.Add(1)
		count, used, err = Int.scan(src[codesOff:], codesPredFromSorted(codes), base, out, st, cfg)
		return count, codesOff + used, err
	},
	views: func(b StringBlock, views []coldata.View) ([]byte, error) {
		o := 0
		for r, c := range b.codes {
			if uint32(c) >= uint32(len(b.starts)-1) {
				return nil, ErrCorrupt
			}
			v, end := coldata.View{Off: uint32(b.starts[c]), Len: uint32(b.starts[c+1] - b.starts[c])}, o+1
			if b.runLens != nil {
				end = o + int(b.runLens[r])
			}
			for ; o < end; o++ {
				views[o] = v
			}
		}
		return b.pool, nil
	},
	appendTo: func(b StringBlock, data []byte, ends []uint32, end uint32) ([]byte, error) {
		at := len(data)
		data = grow(data, b.size)
		out := data[at:]
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
			return data, nil
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
		return data, nil
	},
	walk: func(l *Layout, src []byte) error {
		dictN, raw, blob, pos, err := stringPool(src, l.Values)
		if err != nil {
			return err
		}
		// tag n dictN poolKind, and the raw pool's length or the blob's two
		l.HeaderBytes, l.Detail = 14, fmt.Sprintf("%d distinct, raw pool %dB", dictN, len(raw))
		if blob.table != nil {
			l.HeaderBytes, l.Detail = 18, fmt.Sprintf("%d distinct, FSST pool %s", dictN, blob.detail())
		}
		l.PayloadBytes = pos - l.HeaderBytes
		_, err = l.walkSubs(src, pos, sub{Int, "pool lengths", dictN}, sub{Int, "codes", l.Values})
		return err
	},
}

// encodeStringDict stores the sorted distinct strings as a pool (raw or
// FSST-compressed, whichever is smaller), the pool string lengths as a
// cascaded integer stream, and the per-row codes as a cascaded integer
// stream — which the selection algorithm typically sends to RLE or
// bit-packing. The distinct strings and the rows' ids come from the
// stream's profile p.
func encodeStringDict(dst []byte, src coldata.Strings, p *stats.StringProfile, cfg *Config, depth int, rng *rand.Rand) []byte {
	String.profile(p, src, cfg)
	pool, lengths, codes := sortedStringDict(src, p)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(src.Len()))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(lengths)))
	// Try FSST on the dictionary pool ("Dict+FSST" in Figure 3/4).
	mark := len(dst)
	dst, ok := appendFSSTPool(append(dst, poolFSST), pool, cfg, depth)
	if !ok {
		dst = binary.LittleEndian.AppendUint32(append(dst[:mark], poolRaw), uint32(len(pool)))
		dst = append(dst, pool...)
	}
	dst = compress(Int, dst, lengths, cfg, depth-1, rng)
	return compress(Int, dst, codes, cfg, depth-1, rng)
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

// parseStringDict parses a Dict block. Fused Dict+RLE decompression (§5):
// when the code stream is RLE with long runs, the finishers look up the
// dictionary per run and write runs of rows directly, skipping the
// intermediate codes array.
func parseStringDict(b StringBlock, src []byte, cfg *Config, forViews bool) (_ StringBlock, pos int, err error) {
	b.pool, b.starts, pos, err = stringDictHead(src, b.rows, cfg, forViews)
	if err != nil {
		return b, 0, err
	}
	codes, n, err := head(&Int.schemes, src[pos:], cfg)
	if err != nil || n != b.rows {
		return b, 0, ErrCorrupt
	}
	var used int
	if codes.runs != nil && !cfg.DisableFuseDictRLE && !cfg.ScalarDecode {
		if b.codes, b.runLens, used, err = codes.runs(src[pos:], n, cfg); err != nil {
			return b, 0, err
		}
		if n > 0 && len(b.codes) > 0 && float64(n)/float64(len(b.codes)) > 3 {
			err = b.sizeDict(forViews) // before b is copied out
			return b, pos + used, err
		}
		// short runs: the standard two-step decode below
		Int.putBuf(cfg.Scratch, b.codes)
		Int.putBuf(cfg.Scratch, b.runLens)
		b.runLens = nil
	}
	if b.codes, used, err = codes.decode(Int.buf(cfg.Scratch), src[pos:], n, cfg); err != nil {
		return b, 0, err
	}
	err = b.sizeDict(forViews)
	return b, pos + used, err
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

// stringPool reads a string Dict stream of n rows up to its pool lengths
// stream, which starts at src[pos:]: the number of entries, and the pool,
// raw or as the FSST blob it is compressed in (blob.table set).
func stringPool(src []byte, n int) (dictN int, raw []byte, blob fsstBlob, pos int, err error) {
	if dictN, err = subCount(src, n); err != nil || len(src) < 10 {
		return 0, nil, blob, 0, ErrCorrupt
	}
	switch src[9] {
	case poolRaw:
		if len(src) < 14 {
			return 0, nil, blob, 0, ErrCorrupt
		}
		l := int(binary.LittleEndian.Uint32(src[10:]))
		if l < 0 || len(src) < 14+l {
			return 0, nil, blob, 0, ErrCorrupt
		}
		return dictN, src[14 : 14+l], blob, 14 + l, nil
	case poolFSST:
		blob, used, err := readFSST(src[10:])
		return dictN, nil, blob, 10 + used, err
	}
	return 0, nil, blob, 0, ErrCorrupt
}

// stringDictHead decodes only the dictionary of a Dict stream of n rows:
// its pool, in which entry c is pool[starts[c]:starts[c+1]], and the
// offset where the codes stream begins. starts is arena-backed: the caller
// returns it with Int.putBuf. own copies a raw pool out of src, for views
// that outlive it; predicate evaluation and AppendTo, which do not keep
// it, leave it in place.
func stringDictHead(src []byte, n int, cfg *Config, own bool) (pool []byte, starts []int32, codesOff int, err error) {
	dictN, pool, blob, pos, err := stringPool(src, n)
	switch {
	case err != nil:
		return nil, nil, 0, err
	case blob.table != nil:
		if pool, err = blob.decode(make([]byte, 0, blob.raw)); err != nil {
			return nil, nil, 0, err
		}
	case own:
		pool = append([]byte(nil), pool...)
	}
	// The entry lengths decode behind a leading zero and are summed in
	// place into the entries' start offsets.
	starts, used, err := Int.Decompress(append(Int.buf(cfg.Scratch), 0), src[pos:], cfg)
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
		return nil, nil, 0, err
	}
	return pool, starts, pos + used, nil
}
