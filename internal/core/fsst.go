package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"btrblocks/coldata"
	"btrblocks/internal/fsst"
	"btrblocks/internal/stats"
)

// FSST, strings only: the block's whole string payload compressed with
// one trained symbol table, and only the rows' uncompressed lengths next
// to it (§5: offsets of compressed strings are not needed when the block
// is decoded as one contiguous buffer).
//
//	tag n:u32 blob lengths:stream
//
// The blob is also how a Dict stream stores its pool where FSST shrinks it
// ("Dict+FSST" in Figure 3/4):
//
//	table rawLen:u32 encLen:u32 enc[encLen]

var stringFSST = &strScheme{code: CodeFSST,
	// FSST needs some redundancy in the bytes; on near-empty payloads the
	// table overhead dominates.
	viable: func(p *stats.StringProfile) bool { return p.TotalLen >= 64 },
	encode: func(dst []byte, src coldata.Strings, _ *stats.StringProfile, cfg *Config, depth int, rng *rand.Rand) []byte {
		n := src.Len()
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
		dst = appendFSST(dst, src.Data, &cfg.Scratch.trainer)
		lengths := make([]int32, n)
		for i := range lengths {
			lengths[i] = int32(src.LenAt(i))
		}
		return compress(Int, dst, lengths, cfg, depth-1, rng)
	},
	parse: func(b StringBlock, src []byte, cfg *Config, _ bool) (StringBlock, int, error) {
		blob, used, err := readFSST(src[5:])
		if err != nil {
			return b, 0, err
		}
		pos := 5 + used
		b.blob, b.size = blob, blob.raw
		b.lengths, used, err = Int.Decompress(Int.buf(cfg.Scratch), src[pos:], cfg)
		if err != nil {
			return b, 0, err
		}
		if len(b.lengths) != b.rows {
			return b, 0, ErrCorrupt
		}
		if sum, ok := sumLengths(b.lengths); !ok || sum != blob.raw {
			return b, 0, ErrCorrupt
		}
		return b, pos + used, nil
	},
	views: func(b StringBlock, views []coldata.View) ([]byte, error) {
		pool, err := b.blob.decode(make([]byte, 0, b.size))
		if err != nil {
			return nil, err
		}
		off := uint32(0)
		for i, l := range b.lengths {
			views[i] = coldata.View{Off: off, Len: uint32(l)}
			off += uint32(l)
		}
		return pool, nil
	},
	appendTo: func(b StringBlock, data []byte, ends []uint32, end uint32) ([]byte, error) {
		data, err := b.blob.decode(data)
		if err != nil {
			return nil, err
		}
		for i, l := range b.lengths {
			end += uint32(l)
			ends[i] = end
		}
		return data, nil
	},
	walk: func(l *Layout, src []byte) error {
		blob, used, err := readFSST(src[5:])
		if err != nil {
			return err
		}
		l.HeaderBytes += 8
		l.PayloadBytes = blob.tableBytes + len(blob.enc)
		l.Detail = "pool " + blob.detail()
		_, err = l.walkSubs(src, 5+used, sub{Int, "string lengths", l.Values})
		return err
	},
}

// fsstBlob is a parsed blob. Nothing is decoded until decode.
type fsstBlob struct {
	table      *fsst.Table
	tableBytes int
	raw        int // the decoded length
	enc        []byte
}

// appendFSST appends raw as a blob, with a table trained on raw itself.
func appendFSST(dst, raw []byte, tr *fsst.Trainer) []byte {
	table := tr.Train([][]byte{raw})
	dst = table.AppendTable(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(raw)))
	// The payload is encoded straight into dst; its length, which precedes
	// it, is patched in afterwards.
	lenPos := len(dst)
	dst = table.Encode(append(dst, 0, 0, 0, 0), raw)
	binary.LittleEndian.PutUint32(dst[lenPos:], uint32(len(dst)-lenPos-4))
	return dst
}

// appendFSSTPool appends a Dict stream's pool as a blob where FSST is in
// the string pool, the cascade has a level left and the blob, less its
// two lengths, is at least 5% smaller than the pool; ok reports whether
// it did. Otherwise dst comes back as it was.
func appendFSSTPool(dst, pool []byte, cfg *Config, depth int) (out []byte, ok bool) {
	if !enabled(cfg.StringSchemes, CodeFSST) || depth <= 1 || len(pool) < 64 {
		return dst, false
	}
	out = appendFSST(dst, pool, &cfg.Scratch.trainer)
	if len(out)-len(dst)-8 >= len(pool)*95/100 {
		return dst, false
	}
	return out, true
}

// readFSST parses the blob at the start of src and returns the bytes it
// takes.
func readFSST(src []byte) (b fsstBlob, used int, err error) {
	b.table, b.tableBytes, err = fsst.TableFromBytes(src)
	pos := b.tableBytes + 8
	if err != nil || len(src) < pos {
		return b, 0, ErrCorrupt
	}
	b.raw = int(binary.LittleEndian.Uint32(src[pos-8:]))
	encLen := int(binary.LittleEndian.Uint32(src[pos-4:]))
	// An FSST code expands to at most 8 bytes, so a larger raw length is
	// corrupt, and checking it keeps a corrupt header from sizing the
	// decode buffer.
	if b.raw < 0 || encLen < 0 || len(src) < pos+encLen || b.raw > 8*encLen {
		return b, 0, ErrCorrupt
	}
	b.enc = src[pos : pos+encLen]
	return b, pos + encLen, nil
}

// decode appends the blob's bytes to dst in one call (§5: the first
// offset and the summed length instead of per-string calls). The
// decoder's wide stores stay inside dst's capacity, so a dst that is a
// three-index range of a larger buffer bounds them to that range.
func (b *fsstBlob) decode(dst []byte) ([]byte, error) {
	out, err := b.table.Decode(dst, b.enc)
	if err != nil || len(out) != len(dst)+b.raw {
		return dst, ErrCorrupt
	}
	return out, nil
}

// detail describes the blob in a layout.
func (b *fsstBlob) detail() string {
	return fmt.Sprintf("%dB -> %dB (table %d symbols, %dB)", b.raw, len(b.enc), b.table.NumSymbols(), b.tableBytes)
}
