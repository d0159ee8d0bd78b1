package fsst

import "encoding/binary"

// refTable is the original map-and-bucket-scan FSST trainer and encoder,
// kept as the oracle the indexed implementation must match byte for byte:
// same symbol tables (AppendTable) and same encoded output.
type refTable struct {
	symbols [MaxSymbols]Symbol
	n       int
	// index buckets candidate codes by first byte, longest symbols first.
	index [256][]uint8
}

func (t *refTable) buildIndex() {
	for i := range t.index {
		t.index[i] = nil
	}
	for l := MaxSymbolLen; l >= 1; l-- {
		for i := 0; i < t.n; i++ {
			if int(t.symbols[i].Len) == l {
				first := byte(t.symbols[i].Val)
				t.index[first] = append(t.index[first], uint8(i))
			}
		}
	}
}

func (t *refTable) findLongestMatch(src []byte) int {
	var window uint64
	n := len(src)
	if n >= 8 {
		window = binary.LittleEndian.Uint64(src)
		n = 8
	} else {
		for i := n - 1; i >= 0; i-- {
			window = window<<8 | uint64(src[i])
		}
	}
	for _, code := range t.index[src[0]] {
		s := t.symbols[code]
		if int(s.Len) > n {
			continue
		}
		mask := ^uint64(0)
		if s.Len < 8 {
			mask = (1 << (8 * uint(s.Len))) - 1
		}
		if window&mask == s.Val {
			return int(code)
		}
	}
	return -1
}

func (t *refTable) encode(dst, src []byte) []byte {
	for i := 0; i < len(src); {
		if code := t.findLongestMatch(src[i:]); code >= 0 {
			dst = append(dst, byte(code))
			i += int(t.symbols[code].Len)
			continue
		}
		dst = append(dst, EscapeCode, src[i])
		i++
	}
	return dst
}

func (t *refTable) appendTable(dst []byte) []byte {
	dst = append(dst, byte(t.n))
	for i := 0; i < t.n; i++ {
		s := t.symbols[i]
		dst = append(dst, s.Len)
		dst = append(dst, s.Bytes()...)
	}
	return dst
}

// refFromTable copies a table's symbols into a reference table, so the
// reference encoder can be run against any table (including deserialized
// ones with duplicate symbols).
func refFromTable(t *Table) *refTable {
	r := &refTable{symbols: t.symbols, n: t.n}
	r.buildIndex()
	return r
}

func refTrain(sample [][]byte) *refTable {
	corpus := trainingCorpus(sample)
	t := &refTable{}
	t.buildIndex()
	if len(corpus) == 0 {
		return t
	}
	for iter := 0; iter < buildIterations; iter++ {
		t = refNextGeneration(t, corpus)
	}
	return t
}

func refNextGeneration(t *refTable, corpus []byte) *refTable {
	gains := make(map[Symbol]int)
	prev := Symbol{}
	havePrev := false
	for i := 0; i < len(corpus); {
		var cur Symbol
		if code := t.findLongestMatch(corpus[i:]); code >= 0 {
			cur = t.symbols[code]
		} else {
			cur = Symbol{Val: uint64(corpus[i]), Len: 1}
		}
		gains[cur] += int(cur.Len)
		if havePrev {
			if joined, ok := concatSymbols(prev, cur); ok {
				gains[joined] += int(joined.Len)
			}
		}
		prev, havePrev = cur, true
		i += int(cur.Len)
	}

	type candidate struct {
		sym  Symbol
		gain int
	}
	cands := make([]candidate, 0, len(gains))
	for sym, gain := range gains {
		if gain <= int(sym.Len) {
			continue
		}
		cands = append(cands, candidate{sym: sym, gain: gain})
	}
	nt := &refTable{}
	for nt.n < MaxSymbols && len(cands) > 0 {
		best := 0
		for i := 1; i < len(cands); i++ {
			if cands[i].gain > cands[best].gain ||
				(cands[i].gain == cands[best].gain &&
					(cands[i].sym.Len > cands[best].sym.Len ||
						(cands[i].sym.Len == cands[best].sym.Len && cands[i].sym.Val < cands[best].sym.Val))) {
				best = i
			}
		}
		nt.symbols[nt.n] = cands[best].sym
		nt.n++
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	nt.buildIndex()
	return nt
}
