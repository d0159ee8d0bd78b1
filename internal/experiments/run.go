package experiments

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"btrblocks"
	"btrblocks/internal/pbi"
	"btrblocks/internal/tpch"
)

// Config scales and directs an experiment run.
type Config struct {
	// Rows is the number of rows per generated table (default 64,000 —
	// one full block per column). The paper's corpora are far larger;
	// rows scale the workload without changing its distributions.
	Rows int
	// Seed drives the deterministic generators.
	Seed int64
	// Threads is the parallelism for multithreaded decompression
	// experiments (default GOMAXPROCS).
	Threads int
	// Reps repeats timed sections to stabilize measurements (default 3).
	Reps int
	// NetworkGbps overrides the simulated network bandwidth for the S3
	// experiments. The default (0.6 Gbps) preserves the paper's
	// network-to-compute ratio: the paper pairs a 100 Gbit NIC with 36
	// AVX2 cores decompressing ~50 GB/s; this pure-Go implementation
	// decompresses ~100x slower, so the network is scaled likewise. In
	// that regime weakly-compressed Parquet is network-bound, the
	// heavyweight variants are CPU-bound, and BtrBlocks sits almost
	// exactly at the line — the §6.7 result.
	NetworkGbps float64
	// W receives the formatted experiment output (default os.Stdout).
	W io.Writer
}

func (c *Config) rows() int {
	if c == nil || c.Rows <= 0 {
		return 64000
	}
	return c.Rows
}

func (c *Config) seed() int64 {
	if c == nil || c.Seed == 0 {
		return 42
	}
	return c.Seed
}

func (c *Config) threads() int {
	if c == nil || c.Threads <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Threads
}

func (c *Config) networkGbps() float64 {
	if c == nil || c.NetworkGbps <= 0 {
		return 0.6
	}
	return c.NetworkGbps
}

func (c *Config) reps() int {
	if c == nil || c.Reps <= 0 {
		return 3
	}
	return c.Reps
}

func (c *Config) printf(format string, args ...any) {
	var w io.Writer = os.Stdout
	if c != nil && c.W != nil {
		w = c.W
	}
	fmt.Fprintf(w, format, args...)
}

// pbiCorpus and tpchCorpus generate the evaluation corpora.
func (c *Config) pbiCorpus() []pbi.Dataset { return pbi.Corpus(c.rows(), c.seed()) }

func (c *Config) tpchCorpus() []pbi.Dataset {
	out := make([]pbi.Dataset, 0, 3)
	for _, ds := range tpch.Corpus(c.rows(), c.seed()) {
		out = append(out, pbi.Dataset{Name: ds.Name, Chunk: ds.Chunk})
	}
	return out
}

// allColumns flattens a corpus into named columns.
func allColumns(corpus []pbi.Dataset) []pbi.NamedColumn {
	var out []pbi.NamedColumn
	for _, ds := range corpus {
		for _, col := range ds.Chunk.Columns {
			out = append(out, pbi.NamedColumn{Dataset: ds.Name, Name: col.Name, Col: col})
		}
	}
	return out
}

// columnsOfType filters a corpus by column type.
func columnsOfType(corpus []pbi.Dataset, t btrblocks.Type) []btrblocks.Column {
	var out []btrblocks.Column
	for _, ds := range corpus {
		for _, col := range ds.Chunk.Columns {
			if col.Type == t {
				out = append(out, col)
			}
		}
	}
	return out
}

// timeSeconds measures f's wall time.
func timeSeconds(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// gbps converts bytes and seconds to GB/s.
func gbps(bytes int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / 1e9 / seconds
}

// typeName maps a type to the Table 2 column label.
func typeName(t btrblocks.Type) string {
	switch t {
	case btrblocks.TypeInt:
		return "Integer"
	case btrblocks.TypeDouble:
		return "Double"
	case btrblocks.TypeString:
		return "String"
	}
	return "?"
}
