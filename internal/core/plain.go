package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"btrblocks/coldata"
	"btrblocks/internal/stats"
)

// Uncompressed, the picker's implicit baseline.
//
//	numeric: tag n:u32 values[n] (little-endian, 4 or 8 bytes each)
//	string:  tag n:u32 dataLen:u32 offsets[n+1]:u32 data[dataLen]

func plain[T numeric, K stats.Key](t *Numeric[T, K]) *numScheme[T, K] {
	return &numScheme[T, K]{code: CodeUncompressed,
		encode: func(dst []byte, src []T, _ *numProfile[T, K], _ *Config, _ int, _ *rand.Rand) []byte {
			return t.put(binary.LittleEndian.AppendUint32(dst, uint32(len(src))), src)
		},
		decode: func(dst []T, src []byte, n int, _ *Config) ([]T, int, error) {
			end := 5 + t.width*n
			if len(src) < end {
				return dst, 0, ErrCorrupt
			}
			return t.get(dst, src[5:end]), end, nil
		},
		walk: func(l *Layout, src []byte) error {
			if len(src) < 5+t.width*l.Values {
				return ErrCorrupt
			}
			l.PayloadBytes = t.width * l.Values
			return nil
		},
	}
}

var stringPlain = &strScheme{code: CodeUncompressed,
	encode: func(dst []byte, src coldata.Strings, _ *strProfile, _ *Config, _ int, _ *rand.Rand) []byte {
		n := src.Len()
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src.Data)))
		for i := 0; i <= n; i++ {
			off := uint32(0)
			if len(src.Offsets) > 0 {
				off = src.Offsets[i]
			}
			dst = binary.LittleEndian.AppendUint32(dst, off)
		}
		return append(dst, src.Data...)
	},
	parse: parseStringPlain,
	views: func(b StringBlock, views []coldata.View) ([]byte, error) {
		for i := range views {
			lo, hi := binary.LittleEndian.Uint32(b.offsets[4*i:]), binary.LittleEndian.Uint32(b.offsets[4*i+4:])
			views[i] = coldata.View{Off: lo, Len: hi - lo}
		}
		return b.pool, nil
	},
	appendTo: func(b StringBlock, data []byte, ends []uint32, end uint32) ([]byte, error) {
		at := len(data)
		data = grow(data, b.size)
		if b.rows > 0 {
			first := binary.LittleEndian.Uint32(b.offsets)
			copy(data[at:], b.pool[first:])
			for i := range ends {
				ends[i] = end + binary.LittleEndian.Uint32(b.offsets[4*i+4:]) - first
			}
		}
		return data, nil
	},
	walk: func(l *Layout, src []byte) error {
		b, used, err := parseStringPlain(StringBlock{rows: l.Values}, src, nil, false)
		if err != nil {
			return err
		}
		l.HeaderBytes += 4
		l.PayloadBytes = used - l.HeaderBytes
		l.Detail = fmt.Sprintf("offsets %dB, data %dB", len(b.offsets), len(b.pool))
		return nil
	},
}

func parseStringPlain(b StringBlock, src []byte, _ *Config, forViews bool) (StringBlock, int, error) {
	if len(src) < 9 {
		return b, 0, ErrCorrupt
	}
	n, dataLen := b.rows, int(binary.LittleEndian.Uint32(src[5:]))
	need := 9 + 4*(n+1) + dataLen
	if dataLen < 0 || len(src) < need {
		return b, 0, ErrCorrupt
	}
	b.offsets, b.pool = src[9:9+4*(n+1)], src[9+4*(n+1):need]
	if forViews {
		b.pool = append([]byte(nil), b.pool...)
	}
	if n == 0 {
		return b, need, nil
	}
	first := binary.LittleEndian.Uint32(b.offsets)
	last := first
	for i := 1; i <= n; i++ {
		next := binary.LittleEndian.Uint32(b.offsets[4*i:])
		if last > next {
			return b, 0, ErrCorrupt
		}
		last = next
	}
	if int(last) > dataLen {
		return b, 0, ErrCorrupt
	}
	b.size = int(last - first)
	return b, need, nil
}
