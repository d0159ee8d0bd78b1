// Package coldata defines the typed column vectors BtrBlocks compresses:
// 32-bit integers, 64-bit floats, and variable-length strings in a
// flattened offsets+data representation. The flattened form is shared by
// the compressor, the decompressor and the baselines, and is what makes
// the paper's copy-free string dictionary decompression possible: a
// decompressed string column can be a set of (offset, length) views into a
// shared pool instead of per-string allocations.
package coldata

// Strings is a flattened string column: value i occupies
// Data[Offsets[i]:Offsets[i+1]]. len(Offsets) == Len()+1; an empty column
// has Offsets == []uint32{0} or nil.
type Strings struct {
	Offsets []uint32
	Data    []byte
}

// MakeStrings flattens a []string into a Strings column.
func MakeStrings(values []string) Strings {
	s := Strings{Offsets: make([]uint32, 1, len(values)+1)}
	total := 0
	for _, v := range values {
		total += len(v)
	}
	s.Data = make([]byte, 0, total)
	for _, v := range values {
		s.Data = append(s.Data, v...)
		s.Offsets = append(s.Offsets, uint32(len(s.Data)))
	}
	return s
}

// NewStringsBuilder returns an empty Strings ready for Append.
func NewStringsBuilder(n, dataHint int) Strings {
	return Strings{
		Offsets: append(make([]uint32, 0, n+1), 0),
		Data:    make([]byte, 0, dataHint),
	}
}

// Len returns the number of strings in the column.
func (s Strings) Len() int {
	if len(s.Offsets) == 0 {
		return 0
	}
	return len(s.Offsets) - 1
}

// At returns value i as a string (copies).
func (s Strings) At(i int) string { return string(s.View(i)) }

// View returns value i as a byte slice into Data (no copy).
func (s Strings) View(i int) []byte {
	return s.Data[s.Offsets[i]:s.Offsets[i+1]]
}

// LenAt returns the length of value i.
func (s Strings) LenAt(i int) int {
	return int(s.Offsets[i+1] - s.Offsets[i])
}

// Append adds a value to the column and returns the updated column.
func (s Strings) Append(v string) Strings {
	if len(s.Offsets) == 0 {
		s.Offsets = append(s.Offsets, 0)
	}
	s.Data = append(s.Data, v...)
	s.Offsets = append(s.Offsets, uint32(len(s.Data)))
	return s
}

// AppendBytes adds a byte-slice value to the column.
func (s Strings) AppendBytes(v []byte) Strings {
	if len(s.Offsets) == 0 {
		s.Offsets = append(s.Offsets, 0)
	}
	s.Data = append(s.Data, v...)
	s.Offsets = append(s.Offsets, uint32(len(s.Data)))
	return s
}

// Slice returns the sub-column [lo, hi) rebased to its own offsets.
func (s Strings) Slice(lo, hi int) Strings {
	out := NewStringsBuilder(hi-lo, 0)
	base := s.Offsets[lo]
	out.Data = s.Data[base:s.Offsets[hi]]
	for i := lo + 1; i <= hi; i++ {
		out.Offsets = append(out.Offsets, s.Offsets[i]-base)
	}
	return out
}

// TotalBytes returns the in-memory footprint used for compression-ratio
// accounting: string payload plus one 32-bit offset per value, matching
// how the paper's uncompressed binary format stores string columns.
func (s Strings) TotalBytes() int {
	return len(s.Data) + 4*s.Len()
}

// Equal reports whether two columns hold identical values.
func (s Strings) Equal(o Strings) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := 0; i < s.Len(); i++ {
		if string(s.View(i)) != string(o.View(i)) {
			return false
		}
	}
	return true
}

// View is one string value as an (offset, length) pair into a shared pool.
// Offset and length form a fixed-size 64-bit tuple, the layout §5 of the
// paper uses so string dictionary decompression never copies string bytes.
type View struct {
	Off uint32
	Len uint32
}

// StringViews is a decompressed string column in no-copy form: Views[i]
// points into Pool. Pool is typically the dictionary's string pool.
type StringViews struct {
	Views []View
	Pool  []byte
}

// Len returns the number of values.
func (v StringViews) Len() int { return len(v.Views) }

// At returns value i as a string (copies).
func (v StringViews) At(i int) string { return string(v.Bytes(i)) }

// Bytes returns value i as a byte slice into Pool (no copy).
func (v StringViews) Bytes(i int) []byte {
	w := v.Views[i]
	return v.Pool[w.Off : w.Off+w.Len]
}

// Materialize converts the view column into an owned Strings column of
// exactly its size: the offsets are a prefix sum of the view lengths, and
// each value is then copied to where they say.
func (v StringViews) Materialize() Strings {
	out := Strings{Offsets: make([]uint32, len(v.Views)+1)}
	for i, w := range v.Views {
		out.Offsets[i+1] = out.Offsets[i] + w.Len
	}
	out.Data = make([]byte, out.Offsets[len(v.Views)])
	for i := range v.Views {
		copy(out.Data[out.Offsets[i]:], v.Bytes(i))
	}
	return out
}

// ViewsOf converts an owned Strings column into views over its own data.
func ViewsOf(s Strings) StringViews {
	views := make([]View, s.Len())
	for i := range views {
		views[i] = View{Off: s.Offsets[i], Len: s.Offsets[i+1] - s.Offsets[i]}
	}
	return StringViews{Views: views, Pool: s.Data}
}
