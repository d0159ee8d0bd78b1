package core

import (
	"fmt"
	"math/rand"

	"btrblocks/internal/fastpfor"
	"btrblocks/internal/stats"
)

// FastPFOR: patched frame of reference (the SIMD-FastPFOR stand-in), int32
// only. The body after the tag is internal/fastpfor's format:
//
//	tag n:u32 [ref:u32, then per block b:u8 maxb:u8 exc:u8, the packed
//	low bits, exc positions, the packed high bits of the exceptions]

func fastPFOR() *numScheme[int32, int32] {
	return &numScheme[int32, int32]{code: CodeFastPFOR,
		viable: func(*stats.Profile[int32]) bool { return true },
		encode: func(dst []byte, src []int32, _ *numProfile[int32, int32], _ *Config, _ int, _ *rand.Rand) []byte {
			return fastpfor.Encode(dst, src)
		},
		decode: leafDecode(fastpfor.Decode, fastpfor.DecodeGeneric),
		walk: func(l *Layout, src []byte) error {
			n := l.Values
			if n == 0 {
				return nil
			}
			if len(src) < 9 {
				return ErrCorrupt
			}
			l.HeaderBytes += 4
			totalExc := 0
			for got := 0; got < n; got += fastpfor.BlockLen {
				cnt, pos := min(n-got, fastpfor.BlockLen), l.HeaderBytes+l.PayloadBytes
				if pos+3 > len(src) {
					return ErrCorrupt
				}
				b, maxb, exc := int(src[pos]), int(src[pos+1]), int(src[pos+2])
				if b > 32 || maxb > 32 || b > maxb || exc > cnt {
					return ErrCorrupt
				}
				totalExc += exc
				blockBytes := 3 + (cnt*b+63)/64*8 + exc + (exc*(maxb-b)+63)/64*8
				if pos+blockBytes > len(src) {
					return ErrCorrupt
				}
				l.PayloadBytes += blockBytes
			}
			l.Detail = fmt.Sprintf("%d exceptions", totalExc)
			return nil
		},
	}
}
