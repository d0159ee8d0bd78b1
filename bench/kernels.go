package main

import (
	"runtime"
	"time"

	"btrblocks"
	"btrblocks/internal/bitpack"
	"btrblocks/internal/fsst"
	"btrblocks/internal/roaring"
	"btrblocks/metadata"
)

// The probes below time the substrate kernels on slices and bitmaps cut
// from the workload's own corpus, not on synthetic single-shape input:
// a kernel change is judged on the width mix, string mix and selection
// shapes the end-to-end workloads actually produce.

// bestOf returns the fastest of reps timings of f: the probes are short
// and single-threaded, so the minimum is the least disturbed run.
func bestOf(reps int, f func()) time.Duration {
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); r == 0 || d < best {
			best = d
		}
	}
	return best
}

func mbps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// probeBitpack frame-of-references every int32 column in 128-value
// blocks, packs each block at the width its values need — the mixed
// width sequence real columns produce — and times unpack (and pack,
// when the workload is on the write side).
func probeBitpack(v values, cols []*column, reps int, writeSide bool) {
	type block struct {
		vals  []uint32
		width uint
	}
	var blocks []block
	nvals := 0
	for _, c := range cols {
		if c.col.Type != btrblocks.TypeInt {
			continue
		}
		ints := c.col.Ints
		for lo := 0; lo+bitpack.BlockLen <= len(ints); lo += bitpack.BlockLen {
			base := ints[lo]
			for _, x := range ints[lo : lo+bitpack.BlockLen] {
				base = min(base, x)
			}
			vals := make([]uint32, bitpack.BlockLen)
			for i, x := range ints[lo : lo+bitpack.BlockLen] {
				vals[i] = uint32(x - base)
			}
			blocks = append(blocks, block{vals, bitpack.MaxWidth(vals)})
			nvals += bitpack.BlockLen
		}
	}
	if len(blocks) == 0 {
		return
	}
	packed := make([][]byte, len(blocks))
	pack := func() {
		for i, b := range blocks {
			packed[i] = bitpack.Pack(packed[i][:0], b.vals, b.width)
		}
	}
	pack()
	if writeSide {
		v["bitpack.pack_mbps"] = mbps(nvals*4, bestOf(reps, pack))
	}
	dst := make([]uint32, bitpack.BlockLen)
	v["bitpack.unpack_mixed_mbps"] = mbps(nvals*4, bestOf(reps, func() {
		for i, b := range blocks {
			if _, err := bitpack.Unpack(dst, packed[i], bitpack.BlockLen, b.width); err != nil {
				panic(err) // packed two lines up by the same package: only a bug gets here
			}
		}
	}))
}

// probeFSST trains a symbol table on a sample of the corpus's strings,
// as the string cascade does per block, and times encode and decode of
// the strings it was sampled from.
func probeFSST(v values, cols []*column, reps int, writeSide bool) {
	var strs [][]byte
	total := 0
	for _, c := range cols {
		if c.col.Type != btrblocks.TypeString {
			continue
		}
		n := min(c.col.Len(), 8192)
		for i := 0; i < n; i++ {
			s := c.col.Strings.View(i)
			strs = append(strs, s)
			total += len(s)
		}
	}
	if total == 0 {
		return
	}
	var sample [][]byte
	for i := 0; i < len(strs); i += 16 {
		sample = append(sample, strs[i])
	}
	var table *fsst.Table
	train := bestOf(reps, func() { table = fsst.Train(sample) })
	encoded := make([][]byte, len(strs))
	encode := func() {
		for i, s := range strs {
			encoded[i] = table.Encode(encoded[i][:0], s)
		}
	}
	encode()
	if writeSide {
		v["fsst.train_ms"] = float64(train.Nanoseconds()) / 1e6
		v["fsst.encode_mbps"] = mbps(total, bestOf(reps, encode))
		return
	}
	var buf []byte
	v["fsst.decode_mbps"] = mbps(total, bestOf(reps, func() {
		for _, e := range encoded {
			var err error
			if buf, err = table.Decode(buf[:0], e); err != nil {
				panic(err) // encoded by the same table just above
			}
		}
	}))
}

// probeRoaring times the bitmap operations the router's gather and the
// executor's and/or nodes run, on the two leaf selections of one
// q_or_bitmap plan.
func probeRoaring(v values, t *queryTable, reps int) {
	var a, b []uint32
	lo := uint32(len(t.seq) / 4)
	hi := lo + uint32(len(t.seq)/16)
	for i := range t.status {
		if t.status[i] == 200 {
			a = append(a, uint32(i))
		}
		if uint32(i) >= lo && uint32(i) < hi {
			b = append(b, uint32(i))
		}
	}
	ba, bb := roaring.FromSlice(a), roaring.FromSlice(b)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	var or *roaring.Bitmap
	v["roaring.and_us"] = us(bestOf(reps, func() { roaring.And(ba, bb) }))
	v["roaring.or_us"] = us(bestOf(reps, func() { or = roaring.Or(ba, bb) }))
	v["roaring.addrange_us"] = us(bestOf(reps, func() { roaring.New().AddRange(lo, hi) }))
	v["roaring.serialize_us"] = us(bestOf(reps, func() { or.AppendTo(nil) }))
}

// probeMetadata times the sidecar lookup every q_prune plan starts with.
func probeMetadata(v values, m *metadata.ColumnMeta, t *queryTable, reps int) {
	rows := len(t.ts)
	d := bestOf(reps, func() {
		for k := 0; k < planVariants; k++ {
			lo := k * (rows - rows/40) / planVariants
			m.PruneInt64Range(t.ts[lo], t.ts[lo+rows/40-1])
		}
	})
	v["metadata.prune_us"] = float64(d.Nanoseconds()) / 1e3 / planVariants
}

// decodeAllocsPerBlock counts heap allocations per DecompressBlock over
// every block of the corpus, with nothing else running.
func decodeAllocsPerBlock(cols []*column) float64 {
	type target struct {
		ix   *btrblocks.ColumnIndex
		data []byte
	}
	var targets []target
	blocks := 0
	for _, c := range cols {
		ix, err := btrblocks.ParseColumnIndex(c.data)
		if err != nil {
			continue // compressAll decoded this file already; unreachable short of a bug
		}
		targets = append(targets, target{ix, c.data})
		blocks += len(ix.Blocks)
	}
	if blocks == 0 {
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tg := range targets {
		for b := range tg.ix.Blocks {
			if _, err := tg.ix.DecompressBlock(tg.data, b, nil); err != nil {
				return 0
			}
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(blocks)
}
