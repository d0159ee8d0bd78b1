package main

import (
	"context"
	"hash/crc32"
	"math/rand"

	"btrblocks"
)

// lakeInst is the no-server workload pair: the paper's corpus pushed
// through CompressColumn (lake_compress) or DecompressColumn
// (lake_decompress), one column file per op. The two share a corpus and
// a set-up so a decode win paid for in the encoder shows as a gain on
// one and a loss on the other.
type lakeInst struct {
	decompress bool
	cols       []*column
	order      []int // seeded permutation: op i works on cols[order[i%len]]
}

func setupLake(seed int64, sc scale, decompress bool) (*lakeInst, error) {
	cols := genLake(sc.tableRows)
	if err := compressAll(cols); err != nil {
		return nil, err
	}
	return &lakeInst{
		decompress: decompress,
		cols:       cols,
		order:      rand.New(rand.NewSource(seed)).Perm(len(cols)),
	}, nil
}

func (l *lakeInst) column(i uint64) *column { return l.cols[l.order[i%uint64(len(l.order))]] }

func (l *lakeInst) do(_ context.Context, i uint64) outcome {
	c := l.column(i)
	if l.decompress {
		got, err := btrblocks.DecompressColumn(c.data, nil)
		return outcome{bytes: c.raw, ok: err == nil && c.checkSampled(&got)}
	}
	data, err := btrblocks.CompressColumn(c.col, nil)
	return outcome{bytes: c.raw,
		ok: err == nil && crc32.Checksum(data, castagnoli) == c.crc}
}

func (l *lakeInst) describe(i uint64) string {
	if l.decompress {
		return "decompress " + l.column(i).name
	}
	return "compress " + l.column(i).name
}

func (l *lakeInst) finish(context.Context) (float64, values, error) {
	return storedRatio(l.cols), nil, nil
}

func (l *lakeInst) close() {}

func (l *lakeInst) spanName(i uint64) string {
	if l.decompress {
		return "decompress " + typeKey(l.column(i).col.Type)
	}
	return "compress " + typeKey(l.column(i).col.Type)
}

// replay has no boundary below the op to replay — the op is the call
// into the library. It groups the client spans by column type, reads the
// scheme-selection share off a telemetry recorder, and probes the
// substrate kernels on slices of this corpus.
func (l *lakeInst) replay(_ context.Context, _ *tracer, _ []uint64, ns []int64, sc scale) (values, error) {
	verb := "compress"
	if l.decompress {
		verb = "decompress"
	}
	type acc struct {
		bytes int
		ns    int64
	}
	byType := map[string]*acc{"int": {}, "double": {}, "string": {}}
	var totalNS int64
	for i, d := range ns {
		c := l.column(uint64(i))
		a := byType[typeKey(c.col.Type)]
		a.bytes += c.raw
		a.ns += d
		totalNS += d
	}

	v := values{}
	for k, a := range byType {
		if a.ns > 0 {
			v["btrblocks."+verb+"_"+k+"_mbps"] = float64(a.bytes) / 1e6 / (float64(a.ns) / 1e9)
		}
	}
	raw, stored := map[string]int{}, map[string]int{}
	for _, c := range l.cols {
		raw[typeKey(c.col.Type)] += c.raw
		stored[typeKey(c.col.Type)] += len(c.data)
	}
	for k := range raw {
		v["btrblocks.ratio_"+k] = float64(raw[k]) / float64(stored[k])
	}
	if l.decompress {
		v["btrblocks.decode_block_us"] = float64(totalNS) / 1e3 / float64(len(ns))
		v["btrblocks.decode_allocs_per_block"] = decodeAllocsPerBlock(l.cols)
		probeBitpack(v, l.cols, sc.kernelReps, false)
		probeFSST(v, l.cols, sc.kernelReps, false)
		return v, nil
	}
	// One more pass with a telemetry recorder attached gives the share of
	// compression time spent sampling and estimating (paper, section 3.1).
	tel := btrblocks.NewTelemetry()
	for _, c := range l.cols {
		if _, err := btrblocks.CompressColumn(c.col, &btrblocks.Options{Telemetry: tel}); err != nil {
			return nil, err
		}
	}
	if snap := tel.Snapshot(); snap.CompressNanos > 0 {
		v["btrblocks.pick_share"] = float64(snap.SampleNanos) / float64(snap.CompressNanos)
	}
	probeBitpack(v, l.cols, sc.kernelReps, true)
	probeFSST(v, l.cols, sc.kernelReps, true)
	return v, nil
}
