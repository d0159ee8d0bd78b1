package core

import (
	"btrblocks/coldata"
	"btrblocks/internal/stats"
)

// A stream's profile is bound to its stream (column.profile) with nothing
// computed; the picker and the winning encoder share it, so the stream is
// hashed at most once.
//
// A numeric stream is hashed at its first filter: the Frequency filter,
// in every numeric pool, needs the exact top count. A string stream's
// filters read the hash-free shape (stats.StringShape), and the hashed
// pass runs only for the Dictionary encoder, which reads the ids, or for
// the Dictionary filter on a stream too short for the shape to answer
// (minShapedDict). A string filter sees its stream through strStats, so
// it cannot read Distinct, TopID, TopCount, IDs or Vals from a profile
// that was not hashed: those come only out of hashed(), which builds
// first.

// numProfile is one numeric stream's profile, bound to the stream.
type numProfile[T numeric, K stats.Key] struct {
	t    *Numeric[T, K]
	src  []T
	cfg  *Config
	full stats.Profile[K]
}

// Reset unbinds p; its buffers stay for the next stream.
func (p *numProfile[T, K]) Reset() {
	*p = numProfile[T, K]{full: p.full}
	p.full.Reset()
}

// hashed is the stream's profile, built on first call.
func (p *numProfile[T, K]) hashed() *stats.Profile[K] {
	if !p.full.Built {
		p.full.Build(p.t.keys(p.src, p.cfg.Scratch), &p.cfg.Scratch.table)
	}
	return &p.full
}

// strStats is what a string scheme's filter reads of a stream.
type strStats interface {
	// shape is the hash-free pass.
	shape() *stats.StringShape
	// hashed is the hashed pass, built on first call.
	hashed() *stats.StringProfile
}

// strProfile is one string stream's statistics, bound to the stream.
type strProfile struct {
	src    coldata.Strings
	cfg    *Config
	sh     stats.StringShape
	shaped bool
	full   stats.StringProfile
}

// Reset unbinds p; its buffers stay for the next stream.
func (p *strProfile) Reset() {
	*p = strProfile{full: p.full}
	p.full.Reset()
}

func (p *strProfile) shape() *stats.StringShape {
	if !p.shaped {
		p.sh.Scan(p.src)
		p.shaped = true
	}
	return &p.sh
}

func (p *strProfile) hashed() *stats.StringProfile {
	if !p.full.Built {
		p.full.Build(p.src, &p.cfg.Scratch.table)
	}
	return &p.full
}

// minShapedDict is the shortest string stream whose Dictionary filter the
// shape answers: Distinct > 1 && Distinct < N, with Distinct capped at
// N/2+2, which is below N from N = 5 on, is "not all equal" there.
const minShapedDict = 5
