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
		encode: func(dst []byte, src []T, p *stats.Profile[K], cfg *Config, depth int, rng *rand.Rand) []byte {
			topRow, bm, exceptions := splitTop(t.profile(p, src, cfg), p.IDs, src)
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
		scan: func(src []byte, n int, m Matcher[T], base uint32, out *roaring.Bitmap, st *SelectStats, cfg *Config) (int, int, error) {
			top, bm, pos, err := t.frequencyHead(src, n, cfg)
			if err != nil {
				return 0, 0, err
			}
			st.Frequency.Add(1)
			var excSel *roaring.Bitmap // over exception indexes
			if out != nil {
				excSel = roaring.New()
			}
			count, used, err := t.scan(src[pos:], m, 0, excSel, st, cfg)
			if err != nil {
				return 0, 0, err
			}
			topMatch := m.Match(top)
			if topMatch {
				count += bm.Cardinality()
			}
			if out != nil {
				exc := uint32(0) // exceptions before the current span
				err = frequencySpans(n, bm, func(lo, hi int, isTop bool) {
					switch {
					case isTop && topMatch:
						out.AddRange(base+uint32(lo), base+uint32(hi))
					case !isTop:
						for row := lo; row < hi; row++ {
							if excSel.Contains(exc) {
								out.Add(base + uint32(row))
							}
							exc++
						}
					}
				})
			}
			return count, pos + used, err
		},
		aggregate: func(src []byte, n int, acc Folder[T], st *SelectStats, cfg *Config) (int, error) {
			if !t.rowOrder {
				top, bm, pos, err := t.frequencyHead(src, n, cfg)
				if err != nil {
					return 0, err
				}
				used, err := t.aggregate(src[pos:], acc, st, cfg)
				if err != nil {
					return 0, err
				}
				st.AggFast.Add(1)
				acc.FoldRun(top, bm.Cardinality())
				return pos + used, nil
			}
			// A row-order fold needs the exception values themselves, not a
			// recursive aggregate: decode the (small) exceptions stream and
			// interleave with the top-value bitmap in position order.
			top, bm, pos, err := t.frequencyHead(src, n, cfg)
			if err != nil {
				return 0, err
			}
			exc, used, err := t.Decompress(t.buf(cfg.Scratch), src[pos:], cfg)
			defer t.putBuf(cfg.Scratch, exc)
			if err != nil {
				return 0, err
			}
			st.AggFast.Add(1)
			err = frequencySpans(n, bm, func(lo, hi int, isTop bool) {
				if isTop {
					acc.FoldRun(top, hi-lo)
					return
				}
				acc.foldAll(exc[:hi-lo])
				exc = exc[hi-lo:]
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
