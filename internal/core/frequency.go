package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"btrblocks/internal/roaring"
	"btrblocks/internal/stats"
)

// Frequency: the dominant value, a bitmap of the rows holding it, and the
// other rows' values (the exceptions, in row order) as a stream.
//
//	tag n:u32 top (4 or 8 bytes) bitmap exceptions:stream

func frequency[T numeric, K stats.Key](t *Numeric[T, K]) *numScheme[T, K] {
	return &numScheme[T, K]{code: CodeFrequency,
		viable: func(p *stats.Profile[K]) bool { return p.UniqueFrac() <= 0.5 && p.TopCount*2 >= p.N },
		encode: func(dst []byte, src []T, p *numProfile[T, K], cfg *Config, depth int, rng *rand.Rand) []byte {
			h := p.hashed()
			topRow, bm, exceptions := splitTop(&h.Summary, h.IDs, src)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
			dst = t.put(dst, src[topRow:topRow+1])
			dst = bm.AppendTo(dst)
			return compress(t, dst, exceptions, cfg, depth-1, rng)
		},
		decode: func(dst []T, src []byte, n int, cfg *Config) ([]T, int, error) {
			top, bm, pos, err := t.frequencyHead(src, n, cfg)
			if err != nil {
				return dst, 0, err
			}
			exceptions, used, err := t.Decompress(t.buf(cfg.Scratch), src[pos:], cfg)
			defer t.putBuf(cfg.Scratch, exceptions)
			if err != nil {
				return dst, 0, err
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
		},
		scan: func(src []byte, n int, m Matcher[T], sel []uint64, st *SelectStats, cfg *Config) (int, int, error) {
			top, bm, pos, err := t.frequencyHead(src, n, cfg)
			if err != nil {
				return 0, 0, err
			}
			st.Frequency.Add(1)
			var excSel []uint64 // over exception indexes
			if sel != nil {
				excSel = make([]uint64, (n-bm.Cardinality()+63)/64)
			}
			count, used, err := t.scan(src[pos:], m, excSel, st, cfg)
			if err != nil {
				return 0, 0, err
			}
			topMatch := m.Match(top)
			if topMatch {
				count += bm.Cardinality()
			}
			if sel != nil {
				exc := 0 // exceptions before the current span
				err = frequencySpans(n, bm, func(lo, hi int, isTop bool) {
					switch {
					case isTop && topMatch:
						setBits(sel, lo, hi)
					case !isTop:
						orBits(sel, lo, excSel, exc, hi-lo)
						exc += hi - lo
					}
				})
			}
			return count, pos + used, err
		},
		aggregate: func(src []byte, n int, sel []uint64, acc Folder[T], st *SelectStats, cfg *Config) (int, error) {
			top, bm, pos, err := t.frequencyHead(src, n, cfg)
			if err != nil {
				return 0, err
			}
			// The exceptions are folded through the rows selected among
			// them (excSel, over exception indexes).
			excN, topN := n-bm.Cardinality(), bm.Cardinality()
			var excSel []uint64
			if sel != nil {
				excSel = make([]uint64, (excN+63)/64)
				exc := 0
				topN = 0
				err = frequencySpans(n, bm, func(lo, hi int, isTop bool) {
					if isTop {
						topN += onesIn(sel, lo, hi)
						return
					}
					orBits(excSel, exc, sel, lo, hi-lo)
					exc += hi - lo
				})
				if err != nil {
					return 0, err
				}
			}
			if !t.rowOrder {
				// Integer folds are exact in any order: the top value's rows
				// at once, the exceptions as a stream of their own.
				used, err := t.Aggregate(src[pos:], excSel, acc, st, cfg)
				if err != nil {
					return 0, err
				}
				st.AggFast.Add(1)
				acc.FoldRun(top, topN)
				return pos + used, nil
			}
			// A row-order fold interleaves the selected exception values
			// with the top value's spans in position order.
			exc, used, err := t.take(t.buf(cfg.Scratch), src[pos:], excN, excSel, cfg)
			defer t.putBuf(cfg.Scratch, exc)
			if err != nil {
				return 0, err
			}
			st.AggFast.Add(1)
			err = frequencySpans(n, bm, func(lo, hi int, isTop bool) {
				k := onesIn(sel, lo, hi)
				if isTop {
					acc.FoldRun(top, k)
					return
				}
				k = min(k, len(exc)) // a short exceptions stream folds short: Count shows it
				acc.foldAll(exc[:k])
				exc = exc[k:]
			})
			return pos + used, err
		},
		walk: func(l *Layout, src []byte) error {
			_, bm, pos, err := t.frequencyHead(src, l.Values, &Config{})
			if err != nil {
				return err
			}
			l.HeaderBytes += t.width
			l.PayloadBytes = pos - l.HeaderBytes
			l.Detail = fmt.Sprintf("top value at %d positions, bitmap %dB", bm.Cardinality(), l.PayloadBytes)
			_, err = l.walkSubs(src, pos, sub{t, "exceptions", l.Values - bm.Cardinality()})
			return err
		},
	}
}

// frequencyHead reads a Frequency stream of n rows up to its exceptions
// stream, which starts at src[pos:]: the top value and the bitmap of the
// rows holding it. The exceptions stream's head must count the other rows.
func (t *Numeric[T, K]) frequencyHead(src []byte, n int, cfg *Config) (top T, bm *roaring.Bitmap, pos int, err error) {
	if top, err = t.value(src); err != nil {
		return top, nil, 0, err
	}
	bm, used, err := roaring.FromBytes(src[5+t.width:])
	pos = 5 + t.width + used
	if err != nil {
		return top, nil, 0, ErrCorrupt
	}
	if _, exc, err := head(&t.schemes, src[pos:], cfg); err != nil || bm.Cardinality()+exc != n {
		return top, nil, 0, ErrCorrupt
	}
	return top, bm, pos, nil
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

// splitTop separates a stream for Frequency encoding: a row holding the
// profile's top value, a bitmap of all such rows, and the other rows'
// values.
func splitTop[V any](st *stats.Summary, ids []int32, src []V) (topRow int, bm *roaring.Bitmap, exceptions []V) {
	bm = roaring.New()
	exceptions = make([]V, 0, len(src)-st.TopCount)
	for i, id := range ids {
		if id == st.TopID {
			bm.Add(uint32(i))
			topRow = i
		} else {
			exceptions = append(exceptions, src[i])
		}
	}
	bm.RunOptimize()
	return topRow, bm, exceptions
}
