package obs

import (
	"fmt"
	"io"
	"strings"

	"btrblocks/internal/core"
)

// TraceVersion identifies the decision-trace JSON schema documented in
// OBSERVABILITY.md. Bump it when a field changes meaning.
const TraceVersion = 1

// Candidate is one scheme the picker scored for a stream: its
// sample-estimated compression ratio and whether it won the pick.
type Candidate struct {
	Scheme         string  `json:"scheme"`
	EstimatedRatio float64 `json:"estimated_ratio"`
	// SampleBytes is the size of the trial encoding of the sample (0 when
	// the candidate was scored without a trial, e.g. OneValue fast path).
	SampleBytes int  `json:"sample_bytes,omitempty"`
	Won         bool `json:"won,omitempty"`
}

// Node is one scheme-selection decision in a block's cascade tree: the
// stream it applies to, the winner, every candidate scored, and the
// sub-stream decisions the winner caused.
type Node struct {
	// Depth is the cascade level: 0 for the block's root stream.
	Depth int `json:"depth"`
	// Kind is the stream's value kind ("int", "int64", "double", "string").
	Kind string `json:"kind"`
	// Scheme is the winning scheme's name.
	Scheme string `json:"scheme"`
	// Values, InputBytes and OutputBytes describe the stream and its
	// encoding (OutputBytes includes the scheme tag byte).
	Values      int `json:"values"`
	InputBytes  int `json:"input_bytes"`
	OutputBytes int `json:"output_bytes"`
	// EstimatedRatio is the sample estimate that won the pick;
	// ActualRatio is InputBytes/OutputBytes as achieved.
	EstimatedRatio float64 `json:"estimated_ratio"`
	ActualRatio    float64 `json:"actual_ratio"`
	// PickNanos is the wall time of the selection (statistics, sampling,
	// trial encodes).
	PickNanos int64 `json:"pick_nanos"`
	// Candidates lists every scheme scored for this stream, in
	// evaluation order, with exactly one Won entry.
	Candidates []Candidate `json:"candidates,omitempty"`
	// Children are the winner's compressed sub-streams (RLE lengths,
	// dictionary codes, …), in encoding order.
	Children []*Node `json:"children,omitempty"`
}

// BlockTrace is the decision trace of one compressed block.
type BlockTrace struct {
	Column string `json:"column"`
	Block  int    `json:"block"`
	Type   string `json:"type"`
	Rows   int    `json:"rows"`
	// CascadeDepth is the number of cascade levels used (1 = the root
	// scheme had no compressed sub-streams).
	CascadeDepth  int   `json:"cascade_depth"`
	CompressNanos int64 `json:"compress_nanos"`
	Root          *Node `json:"root"`
}

// Trace is the exported decision-trace document: schema version plus one
// entry per block, ordered by (column, block).
type Trace struct {
	Version int          `json:"version"`
	Blocks  []BlockTrace `json:"blocks"`
}

// BlockTraceFromDecisions reconstructs a block's cascade tree from the
// post-order decision trail delivered by core's OnDecision hook. The
// post-order invariant (a stream's sub-stream decisions arrive before
// its own) plus the per-decision level is enough to rebuild the tree: a
// decision at level L adopts the trailing already-built nodes deeper
// than L as its children.
func BlockTraceFromDecisions(column string, block int, typ string, rows int, compressNanos int64, decisions []core.Decision) BlockTrace {
	bt := BlockTrace{
		Column:        column,
		Block:         block,
		Type:          typ,
		Rows:          rows,
		CompressNanos: compressNanos,
	}
	var stack []*Node
	for _, d := range decisions {
		n := nodeFromDecision(d)
		if d.Level+1 > bt.CascadeDepth {
			bt.CascadeDepth = d.Level + 1
		}
		j := len(stack)
		for j > 0 && stack[j-1].Depth > d.Level {
			j--
		}
		n.Children = append(n.Children, stack[j:]...)
		stack = append(stack[:j], n)
	}
	if len(stack) == 1 {
		bt.Root = stack[0]
	} else if len(stack) > 1 {
		// Defensive: a malformed trail (several top-level decisions) is
		// wrapped rather than dropped so nothing observed is lost.
		bt.Root = &Node{Depth: stack[0].Depth, Kind: stack[0].Kind, Scheme: stack[0].Scheme, Children: stack}
	}
	return bt
}

// walk calls f on n and every node below it, parents first.
func (n *Node) walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.walk(f)
	}
}

// nodeFromDecision is one decision as a childless tree node.
func nodeFromDecision(d core.Decision) *Node {
	n := &Node{
		Depth:          d.Level,
		Kind:           d.Kind.String(),
		Scheme:         d.Code.String(),
		Values:         d.Values,
		InputBytes:     d.InputBytes,
		OutputBytes:    d.OutputBytes,
		EstimatedRatio: d.EstimatedRatio,
		PickNanos:      d.PickNanos,
	}
	if d.OutputBytes > 0 {
		n.ActualRatio = float64(d.InputBytes) / float64(d.OutputBytes)
	}
	if len(d.Candidates) > 0 {
		n.Candidates = make([]Candidate, 0, len(d.Candidates))
	}
	for _, c := range d.Candidates {
		n.Candidates = append(n.Candidates, Candidate{
			Scheme:         c.Code.String(),
			EstimatedRatio: c.EstimatedRatio,
			SampleBytes:    c.SampleBytes,
			Won:            c.Code == d.Code,
		})
	}
	return n
}

// RenderTree writes the trace as a human-readable indented tree, one
// section per block: the winning cascade with per-stream byte accounting
// and the candidate estimates behind every pick.
func (tr Trace) RenderTree(w io.Writer) {
	for i := range tr.Blocks {
		b := &tr.Blocks[i]
		fmt.Fprintf(w, "%s block %d (%s, %d rows, depth %d)\n",
			b.Column, b.Block, b.Type, b.Rows, b.CascadeDepth)
		if b.Root != nil {
			renderNode(w, b.Root, 1)
		}
	}
}

func renderNode(w io.Writer, n *Node, indent int) {
	pad := strings.Repeat("  ", indent)
	fmt.Fprintf(w, "%s%s %s: %d values, %d -> %d bytes (est %.2fx, actual %.2fx)\n",
		pad, n.Kind, n.Scheme, n.Values, n.InputBytes, n.OutputBytes, n.EstimatedRatio, n.ActualRatio)
	for _, c := range n.Candidates {
		marker := " "
		if c.Won {
			marker = "*"
		}
		fmt.Fprintf(w, "%s  %s %-14s est %.2fx", pad, marker, c.Scheme, c.EstimatedRatio)
		if c.SampleBytes > 0 {
			fmt.Fprintf(w, " (sample %d B)", c.SampleBytes)
		}
		fmt.Fprintln(w)
	}
	for _, child := range n.Children {
		renderNode(w, child, indent+1)
	}
}

// Validate checks the trace against the documented schema
// (OBSERVABILITY.md): version, per-block identity fields, tree depth
// consistency, valid scheme names, and the exactly-one-winner candidate
// invariant. Used by the `btrblocks trace -validate` smoke gate and the
// trace tests.
func (tr Trace) Validate() error {
	if tr.Version != TraceVersion {
		return fmt.Errorf("trace: version %d, want %d", tr.Version, TraceVersion)
	}
	for i := range tr.Blocks {
		b := &tr.Blocks[i]
		where := fmt.Sprintf("block %d (%s/%d)", i, b.Column, b.Block)
		if b.Type == "" {
			return fmt.Errorf("trace: %s: empty type", where)
		}
		if b.Rows <= 0 {
			return fmt.Errorf("trace: %s: rows %d", where, b.Rows)
		}
		if b.Root == nil {
			return fmt.Errorf("trace: %s: missing root", where)
		}
		if b.Root.Depth != 0 {
			return fmt.Errorf("trace: %s: root depth %d", where, b.Root.Depth)
		}
		maxDepth := 0
		if err := validateNode(b.Root, where, &maxDepth); err != nil {
			return err
		}
		if maxDepth+1 != b.CascadeDepth {
			return fmt.Errorf("trace: %s: cascade_depth %d, tree depth %d", where, b.CascadeDepth, maxDepth+1)
		}
	}
	return nil
}

func validateNode(n *Node, where string, maxDepth *int) error {
	if n.Depth > *maxDepth {
		*maxDepth = n.Depth
	}
	if _, ok := core.CodeFromName(n.Scheme); !ok {
		return fmt.Errorf("trace: %s: unknown scheme %q at depth %d", where, n.Scheme, n.Depth)
	}
	if n.Values <= 0 || n.OutputBytes <= 0 {
		return fmt.Errorf("trace: %s: non-positive values/output at depth %d", where, n.Depth)
	}
	won := 0
	for _, c := range n.Candidates {
		if _, ok := core.CodeFromName(c.Scheme); !ok {
			return fmt.Errorf("trace: %s: unknown candidate %q at depth %d", where, c.Scheme, n.Depth)
		}
		if c.EstimatedRatio <= 0 {
			return fmt.Errorf("trace: %s: candidate %s estimate %g at depth %d", where, c.Scheme, c.EstimatedRatio, n.Depth)
		}
		if c.Won {
			won++
			if c.Scheme != n.Scheme {
				return fmt.Errorf("trace: %s: winner %q != node scheme %q at depth %d", where, c.Scheme, n.Scheme, n.Depth)
			}
		}
	}
	// Uncompressed can win without being listed (the depth-0 fallthrough
	// records no candidates at all); any other winner must be marked.
	if len(n.Candidates) > 0 && won != 1 && n.Scheme != core.CodeUncompressed.String() {
		return fmt.Errorf("trace: %s: %d winners among candidates at depth %d", where, won, n.Depth)
	}
	for _, c := range n.Children {
		if c.Depth != n.Depth+1 {
			return fmt.Errorf("trace: %s: child depth %d under depth %d", where, c.Depth, n.Depth)
		}
		if err := validateNode(c, where, maxDepth); err != nil {
			return err
		}
	}
	return nil
}
