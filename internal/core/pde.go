package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"btrblocks/internal/pde"
	"btrblocks/internal/roaring"
	"btrblocks/internal/stats"
)

// Pseudodecimal Encoding (§4.2), doubles only: each value as significant
// digits and a decimal exponent, both cascaded back into the integer pool,
// and the values PDE cannot represent patched in raw.
//
//	tag n:u32 digits:stream exponents:stream bitmap patches[|bitmap|]:f64

func pseudodecimal() *numScheme[float64, uint64] {
	return &numScheme[float64, uint64]{code: CodePDE,
		// Below 10% unique values a dictionary compresses almost as well
		// and decompresses much faster.
		viable: func(p *stats.Profile[uint64]) bool { return p.UniqueFrac() >= 0.1 },
		encode: encodePDE,
		decode: decodePDE,
		walk: func(l *Layout, src []byte) error {
			pos, err := l.walkSubs(src, 5, sub{Int, "digits", l.Values}, sub{Int, "exponents", l.Values})
			if err != nil {
				return err
			}
			_, bmBytes, patches, err := pdePatches(src[pos:])
			if err != nil {
				return err
			}
			l.PayloadBytes = bmBytes + len(patches)
			l.Detail = fmt.Sprintf("%d patches, bitmap %dB", len(patches)/8, bmBytes)
			return nil
		},
	}
}

// encodePDE applies Pseudodecimal Encoding and cascades the digits and
// exponent columns back into the integer scheme pool (§4.2).
func encodePDE(dst []byte, src []float64, _ *stats.Profile[uint64], cfg *Config, depth int, rng *rand.Rand) []byte {
	digits, exps, patches, patchIdx := pde.Encode(src)
	bm := roaring.New()
	for _, i := range patchIdx {
		bm.Add(i)
	}
	bm.RunOptimize()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
	dst = compress(Int, dst, digits, cfg, depth-1, rng)
	dst = compress(Int, dst, exps, cfg, depth-1, rng)
	dst = bm.AppendTo(dst)
	return putDoubles(dst, patches)
}

func decodePDE(dst []float64, src []byte, n int, cfg *Config) ([]float64, int, error) {
	pos := 5
	digits, used, err := Int.Decompress(Int.buf(cfg.Scratch), src[pos:], cfg)
	defer Int.putBuf(cfg.Scratch, digits)
	if err != nil {
		return dst, 0, err
	}
	pos += used
	exps, used, err := Int.Decompress(Int.buf(cfg.Scratch), src[pos:], cfg)
	defer Int.putBuf(cfg.Scratch, exps)
	if err != nil {
		return dst, 0, err
	}
	pos += used
	if len(digits) != n || len(exps) != n {
		return dst, 0, ErrCorrupt
	}
	bm, bmBytes, patchBytes, err := pdePatches(src[pos:])
	if err != nil {
		return dst, 0, err
	}
	pos += bmBytes + len(patchBytes)
	patches := getDoubles(make([]float64, 0, len(patchBytes)/8), patchBytes)
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
	if exCount != len(patches) {
		return dst, 0, ErrCorrupt
	}
	if cfg.ScalarDecode {
		return pde.DecodeScalar(dst, digits, exps, patches), pos, nil
	}
	return pde.Decode(dst, digits, exps, patches, bm.ToArray()), pos, nil
}

// pdePatches reads the end of a PDE stream: the bitmap of the patched rows,
// the bytes it takes, and the patches, one double per row it holds.
func pdePatches(src []byte) (bm *roaring.Bitmap, used int, patches []byte, err error) {
	bm, used, err = roaring.FromBytes(src)
	if err != nil {
		return nil, 0, nil, ErrCorrupt
	}
	end := used + 8*bm.Cardinality()
	if len(src) < end {
		return nil, 0, nil, ErrCorrupt
	}
	return bm, used, src[used:end], nil
}
