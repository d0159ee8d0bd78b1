package core

// Layout describes the structure of one compressed stream — the scheme
// tag, header fields, leaf payloads, and cascade sub-streams — obtained
// by walking headers only, without decoding any value payload. It is the
// building block of the public Inspect API and of FORMAT.md's worked
// examples.
//
// Byte accounting is exact by construction:
//
//	Bytes == HeaderBytes + PayloadBytes + Σ Children[i].Bytes
//
// and Bytes equals what the matching decoder would consume.
type Layout struct {
	// Code is the stream's scheme tag.
	Code Code
	// Kind is the stream's value kind.
	Kind Kind
	// Role says which sub-stream of the parent scheme this is ("run
	// values", "codes", "exceptions", …); empty for a block root.
	Role string
	// Values is the value count declared by the stream header.
	Values int
	// Bytes is the stream's total encoded size, tag byte included.
	Bytes int
	// HeaderBytes counts the tag byte plus fixed header fields.
	// PayloadBytes counts leaf payload bytes owned directly by this
	// stream: packed words, string pools, bitmaps, patches.
	HeaderBytes  int
	PayloadBytes int
	// Detail holds scheme-specific extras (bit widths, exception counts,
	// pool encoding) for human-readable rendering.
	Detail string
	// Children are the cascade sub-streams, in on-disk order.
	Children []*Layout
}

// MaxDepth returns the number of cascade levels in the tree rooted at l
// (1 for a leaf scheme with no sub-streams).
func (l *Layout) MaxDepth() int {
	depth := 1
	for _, c := range l.Children {
		if d := 1 + c.MaxDepth(); d > depth {
			depth = d
		}
	}
	return depth
}

// Walk calls f for l and every descendant in pre-order, passing the
// node's cascade level (0 for l itself).
func (l *Layout) Walk(f func(node *Layout, level int)) {
	l.walk(f, 0)
}

func (l *Layout) walk(f func(*Layout, int), level int) {
	f(l, level)
	for _, c := range l.Children {
		c.walk(f, level+1)
	}
}

// InspectStream parses the layout of one compressed stream of the given
// kind. It validates framing exactly as the decoders do but never
// decodes payloads, so it is cheap even on large blocks. Returns the
// layout and the number of bytes consumed.
func InspectStream(kind Kind, src []byte) (*Layout, int, error) {
	if int(kind) >= len(walkers) {
		return nil, 0, ErrCorrupt
	}
	l, err := walkers[kind].walk(src, "")
	if err != nil {
		return nil, 0, err
	}
	return l, l.Bytes, nil
}

// walker is a kind's descriptor as the layout walker of its streams.
type walker interface {
	walk(src []byte, role string) (*Layout, error)
}

var walkers = [...]walker{KindInt: Int, KindInt64: Int64, KindDouble: Double, KindString: String}

// sub is a sub-stream a walk expects: its kind, its role and its count.
type sub struct {
	kind walker
	role string
	n    int
}

// walkSubs walks the sub-streams at src[pos:], one after the other, as
// l's children; each must declare the count expected of it. It returns
// the position after the last.
func (l *Layout) walkSubs(src []byte, pos int, subs ...sub) (int, error) {
	for _, s := range subs {
		c, err := s.kind.walk(src[pos:], s.role)
		if err != nil {
			return 0, err
		}
		if c.Values != s.n {
			return 0, ErrCorrupt
		}
		l.Children = append(l.Children, c)
		pos += c.Bytes
	}
	return pos, nil
}

// walk walks one stream of the kind, capped at MaxBlockValues as a
// decoder without a MaxDecodedValues is.
func (t *Numeric[T, K]) walk(src []byte, role string) (*Layout, error) {
	e, n, err := head(&t.schemes, src, &Config{})
	if err != nil {
		return nil, err
	}
	return walkEntry(&Layout{Code: e.code, Kind: t.kind, Role: role, Values: n}, e.walk, src)
}

func (t *StringKind) walk(src []byte, role string) (*Layout, error) {
	e, n, err := head(&t.schemes, src, &Config{})
	if err != nil {
		return nil, err
	}
	return walkEntry(&Layout{Code: e.code, Kind: t.kind, Role: role, Values: n}, e.walk, src)
}

// walkEntry completes l, a stream's layout as its head gives it, with the
// walk of the stream's entry, and sums its bytes from the parts.
func walkEntry(l *Layout, walk func(*Layout, []byte) error, src []byte) (*Layout, error) {
	l.HeaderBytes = 5
	if err := walk(l, src); err != nil {
		return nil, err
	}
	l.Bytes = l.HeaderBytes + l.PayloadBytes
	for _, c := range l.Children {
		l.Bytes += c.Bytes
	}
	return l, nil
}
