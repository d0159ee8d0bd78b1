package core

import (
	"math/rand"

	"btrblocks/internal/fsst"
	"btrblocks/internal/stats"
)

// Scratch is a per-worker arena of reusable decode buffers. The cascade
// decoders allocate short-lived temporaries on every block — RLE run
// values and lengths, dictionary entries and codes, frequency exceptions,
// string length vectors — and in the parallel engine those allocations
// dominate the per-block decode path. A Scratch turns them into free-list
// reuse: decoders take a zero-length slice with retained capacity via
// their type's buf and return it with putBuf once the block is expanded.
//
// Ownership rules (see PERFORMANCE.md):
//
//   - A Scratch is single-owner state. It is NOT safe for concurrent use;
//     the parallel engine gives each worker its own instance and a worker
//     never touches another worker's arena.
//   - Only temporaries that die before the decoder returns may come from
//     the arena. Anything that escapes into the decoded output (or into a
//     cached pool) must be allocated normally. A StringBlock is a decoder
//     in two calls: it keeps its arrays from String.Parse until its
//     finisher returns them, to whichever arena the finisher is given.
//   - A nil *Scratch is valid everywhere and means "allocate as before":
//     get returns nil (append allocates fresh) and put is a no-op, so the
//     serial path and external callers pay nothing.
//
// On the write side a Scratch owns what scheme selection reuses from
// stream to stream: the lookup table the hashed profiles are built in,
// free lists of the profiles themselves (one is live per stream being
// picked or trial-encoded, so a handful per cascade), and the FSST
// trainer's counters. The compressors always run with a Scratch — the
// caller's (the block-parallel engine keeps one per worker, as for
// decoding), or a fresh one for the duration of the call.
type Scratch struct {
	ints    numScratch[int32, int32]
	ints64  numScratch[int64, int64]
	doubles numScratch[float64, uint64]

	table   stats.Table
	trainer fsst.Trainer
	rng     *rand.Rand // the sampling source of the compression running
	bits    []uint64   // a double stream as bit patterns, while it is profiled
	words   []uint64   // a PDE stream's patch bitmap as a bitset, while it is taken from
	strs    []*strProfile
}

// numScratch is one numeric type's share of a Scratch.
type numScratch[T numeric, K stats.Key] struct {
	free     [][]T               // decode temporaries
	profiles []*numProfile[T, K] // stream profiles, unbound
}

// Trim drops everything in s whose size follows the data it has worked on
// — the profiles, the decode free lists — and keeps the pieces that are
// expensive to set up afresh: the lookup table, the FSST trainer and the
// sampling source. An owner that parks arenas in a pool between calls
// trims them first: every megabyte parked costs two of heap, because the
// GC sizes its headroom by what is live.
func (s *Scratch) Trim() {
	*s = Scratch{table: s.table, trainer: s.trainer, rng: s.rng}
}

// forCompress returns the config and the sampling source a compression
// entry point runs with. Compression always has a Scratch: the caller's,
// or a fresh one that lives for the call (and is reused by every stream of
// its cascade, which is where reuse pays). The Scratch owns the source and
// reseeds it per call, so a call's samples depend on cfg.Seed alone; with
// the caller's Scratch nothing is allocated here.
func (c *Config) forCompress() (*Config, *rand.Rand) {
	if c.Scratch == nil {
		cfg := *c
		cfg.Scratch = new(Scratch)
		c = &cfg
	}
	s := c.Scratch
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(c.Seed))
	} else {
		s.rng.Seed(c.Seed)
	}
	return c, s.rng
}

// borrow takes an unbuilt profile off a free list (or makes one);
// giveBack resets and returns it once its stream is encoded.
func borrow[P any](free *[]*P) *P {
	if n := len(*free); n > 0 {
		p := (*free)[n-1]
		*free = (*free)[:n-1]
		return p
	}
	return new(P)
}

func giveBack[P any, PP interface {
	*P
	Reset()
}](free *[]*P, p *P) {
	PP(p).Reset()
	*free = append(*free, p)
}

// maxScratchSlices bounds each free list so a pathological cascade cannot
// pin an unbounded number of buffers per worker.
const maxScratchSlices = 16

// buf takes a zero-length buffer off s's free list for T; a nil Scratch,
// or an empty list, yields nil and append allocates afresh.
func (t *Numeric[T, K]) buf(s *Scratch) []T {
	if s == nil {
		return nil
	}
	free := &t.scratch(s).free
	n := len(*free)
	if n == 0 {
		return nil
	}
	b := (*free)[n-1]
	*free = (*free)[:n-1]
	return b[:0]
}

// putBuf returns a buffer to s once nothing decoded aliases it.
func (t *Numeric[T, K]) putBuf(s *Scratch, b []T) {
	if s == nil || cap(b) == 0 {
		return
	}
	if free := &t.scratch(s).free; len(*free) < maxScratchSlices {
		*free = append(*free, b[:0])
	}
}
