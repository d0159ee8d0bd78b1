package core

import (
	"encoding/binary"
	"math/rand"

	"btrblocks/coldata"
	"btrblocks/internal/roaring"
	"btrblocks/internal/stats"
)

// OneValue: a stream of n copies of one value, answered in O(1) by every
// kernel.
//
//	numeric: tag n:u32 value (4 or 8 bytes)
//	string:  tag n:u32 len:u32 value[len]

func oneValue[T numeric, K stats.Key](t *Numeric[T, K]) *numScheme[T, K] {
	return &numScheme[T, K]{code: CodeOneValue,
		viable: func(p *stats.Profile[K]) bool { return p.Distinct == 1 },
		size:   func(*stats.Profile[K]) int { return 5 + t.width },
		encode: func(dst []byte, src []T, _ *stats.Profile[K], _ *Config, _ int, _ *rand.Rand) []byte {
			return t.put(binary.LittleEndian.AppendUint32(dst, uint32(len(src))), src[:1])
		},
		decode: func(dst []T, src []byte, n int, _ *Config) ([]T, int, error) {
			v, err := t.value(src)
			if err != nil {
				return dst, 0, err
			}
			for i := 0; i < n; i++ {
				dst = append(dst, v)
			}
			return dst, 5 + t.width, nil
		},
		scan: func(src []byte, n int, m Matcher[T], base uint32, out *roaring.Bitmap, st *SelectStats, _ *Config) (int, int, error) {
			v, err := t.value(src)
			if err != nil {
				return 0, 0, err
			}
			st.OneValue.Add(1)
			return matchAll(m.Match(v), n, base, out), 5 + t.width, nil
		},
		aggregate: func(src []byte, n int, acc Folder[T], st *SelectStats, _ *Config) (int, error) {
			v, err := t.value(src)
			if err != nil {
				return 0, err
			}
			st.AggFast.Add(1)
			acc.FoldRun(v, n)
			return 5 + t.width, nil
		},
		walk: func(l *Layout, src []byte) error {
			if _, err := t.value(src); err != nil {
				return err
			}
			l.HeaderBytes += t.width
			return nil
		},
	}
}

// value reads the value that follows the head of a OneValue stream, or of
// a Frequency stream, whose top value is stored the same way.
func (t *Numeric[T, K]) value(src []byte) (v T, err error) {
	if len(src) < 5+t.width {
		return v, ErrCorrupt
	}
	return t.one(src[5:]), nil
}

// matchAll answers a predicate for all n rows from base at once: n rows
// match or none do.
func matchAll(match bool, n int, base uint32, out *roaring.Bitmap) int {
	if !match {
		return 0
	}
	if out != nil {
		out.AddRange(base, base+uint32(n))
	}
	return n
}

var stringOneValue = &strScheme{code: CodeOneValue,
	viable: func(p *stats.StringProfile) bool { return p.Distinct == 1 },
	size:   func(p *stats.StringProfile) int { return 9 + p.MaxLen },
	encode: func(dst []byte, src coldata.Strings, _ *stats.StringProfile, _ *Config, _ int, _ *rand.Rand) []byte {
		v := src.View(0)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(src.Len()))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
		return append(dst, v...)
	},
	parse: func(b StringBlock, src []byte, _ *Config, forViews bool) (StringBlock, int, error) {
		v, err := stringValue(src)
		if err != nil {
			return b, 0, err
		}
		b.pool, b.size = v, b.rows*len(v)
		if forViews {
			b.pool = append([]byte(nil), v...)
		}
		return b, 9 + len(v), nil
	},
	scan: func(src []byte, n int, p *StringPred, base uint32, out *roaring.Bitmap, st *SelectStats, _ *Config) (int, int, error) {
		v, err := stringValue(src)
		if err != nil {
			return 0, 0, err
		}
		st.OneValue.Add(1)
		return matchAll(p.Match(v), n, base, out), 9 + len(v), nil
	},
	views: func(b StringBlock, views []coldata.View) ([]byte, error) {
		for i := range views {
			views[i] = coldata.View{Len: uint32(len(b.pool))}
		}
		return b.pool, nil
	},
	appendTo: func(b StringBlock, data []byte, ends []uint32, end uint32) ([]byte, error) {
		at := len(data)
		data = grow(data, b.size)
		replicate(data[at:], copy(data[at:], b.pool))
		for i := range ends {
			end += uint32(len(b.pool))
			ends[i] = end
		}
		return data, nil
	},
	walk: func(l *Layout, src []byte) error {
		v, err := stringValue(src)
		if err != nil {
			return err
		}
		l.HeaderBytes += 4
		l.PayloadBytes = len(v)
		return nil
	},
}

// stringValue reads the one value of a string OneValue stream.
func stringValue(src []byte) ([]byte, error) {
	if len(src) < 9 {
		return nil, ErrCorrupt
	}
	l := int(binary.LittleEndian.Uint32(src[5:]))
	if l < 0 || len(src) < 9+l {
		return nil, ErrCorrupt
	}
	return src[9 : 9+l], nil
}
