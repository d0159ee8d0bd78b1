package query

import (
	"context"
	"math"
	"slices"
	"strconv"

	"btrblocks"
	"btrblocks/internal/obs"
	"btrblocks/internal/roaring"
	"btrblocks/metadata"
)

// Col is one queryable column: its parsed index, the compressed file
// bytes the index was parsed from, and (optionally) the block-statistics
// sidecar used for pruning. A nil Meta just disables pruning — results
// are identical either way.
type Col struct {
	Index *btrblocks.ColumnIndex
	Data  []byte
	Meta  *metadata.ColumnMeta
}

// Source resolves the columns a plan references. An unknown name should
// return an error the caller's HTTP layer knows how to map (ErrPlan for
// 400, a not-found error for 404).
type Source interface {
	Column(name string) (*Col, error)
}

// MemSource is an in-memory Source keyed by column name; unknown names
// are plan errors.
type MemSource map[string]*Col

// Column implements Source.
func (m MemSource) Column(name string) (*Col, error) {
	c := m[name]
	if c == nil {
		return nil, planErrf("unknown column %q", name)
	}
	return c, nil
}

// Executor runs plans against a Source. The zero Options is valid.
type Executor struct {
	Source  Source
	Options *btrblocks.Options
}

// Stats reports the work a query did: how many blocks its predicates
// could have touched, how many were pruned away (metadata bounds plus
// selection-flow restriction) versus scanned, and which compressed-domain
// evaluation paths fired. BlocksTotal counts per predicate — a column
// consulted by two leaves contributes its block count twice.
type Stats struct {
	Predicates    int64                 `json:"predicates"`
	BlocksTotal   int64                 `json:"blocks_total"`
	BlocksPruned  int64                 `json:"blocks_pruned"`
	BlocksScanned int64                 `json:"blocks_scanned"`
	Paths         btrblocks.SelectStats `json:"paths"`
}

// Add merges another stats value (used by the router's gather).
func (s *Stats) Add(o Stats) {
	s.Predicates += o.Predicates
	s.BlocksTotal += o.BlocksTotal
	s.BlocksPruned += o.BlocksPruned
	s.BlocksScanned += o.BlocksScanned
	s.Paths.Add(o.Paths)
}

// AggResult is one folded aggregate. Value is the rendered result —
// decimal for integer columns and counts, strconv 'g' format for doubles
// (NaN and ±Inf travel as strings; JSON cannot carry them as numbers),
// the raw string for string min/max — and empty when Count is 0 and the
// op has no meaningful value (min/max/sum over no rows).
type AggResult struct {
	Op     string `json:"op"`
	Column string `json:"column"`
	Type   string `json:"type"`
	Count  int64  `json:"count"`
	Value  string `json:"value,omitempty"`
}

// Result is a query's answer. Every field JSON-encodes cleanly (doubles
// ride in strings), so a result can always be written as a 200.
type Result struct {
	// Rows is the row count of the queried columns' shared row space.
	Rows int `json:"rows"`
	// Matched is the selection cardinality (Rows when there is no filter
	// and no base selection).
	Matched int64 `json:"matched"`
	// RowIDs lists selected row ids, ascending, up to the row limit;
	// present only when the plan asked for rows.
	RowIDs []uint32 `json:"row_ids,omitempty"`
	// RowsTruncated reports that RowIDs was capped by the row limit.
	RowsTruncated bool `json:"rows_truncated,omitempty"`
	// Bitmap is the selection in roaring wire bytes (return=bitmap).
	Bitmap []byte `json:"bitmap,omitempty"`
	// Aggregates mirror the plan's aggregate list, in order.
	Aggregates []AggResult `json:"aggregates,omitempty"`
	Stats      Stats       `json:"stats"`
}

// Run executes a validated plan. Errors wrapping ErrPlan are client
// errors (bad literals, unknown columns, row-count mismatches); anything
// else is a data problem from the underlying column (corruption,
// truncation) and keeps its identity for the HTTP error mapping.
func (e *Executor) Run(ctx context.Context, p *Plan) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	names := p.Columns()
	cols := make(map[string]*Col, len(names))
	rows := -1
	rowsFrom := ""
	for _, name := range names {
		c, err := e.Source.Column(name)
		if err != nil {
			return nil, err
		}
		if c == nil || c.Index == nil {
			return nil, planErrf("%q is not a column file", name)
		}
		cols[name] = c
		if rows == -1 {
			rows, rowsFrom = c.Index.Rows, name
		} else if c.Index.Rows != rows {
			return nil, planErrf("columns disagree on row count: %q has %d rows, %q has %d",
				rowsFrom, rows, name, c.Index.Rows)
		}
	}
	for _, a := range p.Aggregates {
		if a.Op == "sum" && cols[a.Column].Index.Type == btrblocks.TypeString {
			return nil, planErrf("sum over string column %q", a.Column)
		}
	}

	ctx, span := obs.StartChild(ctx, "query.exec")
	defer span.End()

	var base *btrblocks.Selection
	if len(p.Selection) > 0 {
		s, used, err := btrblocks.SelectionFromBytes(p.Selection)
		if err != nil || used != len(p.Selection) {
			err = planErrf("bad selection bytes")
			span.SetError(err)
			return nil, err
		}
		base = &s
	}

	res := &Result{Rows: rows}
	var sel *btrblocks.Selection
	if p.Filter != nil {
		s, err := e.evalNode(ctx, p.Filter, cols, base, &res.Stats)
		if err != nil {
			span.SetError(err)
			return nil, err
		}
		if base != nil {
			s = s.And(*base)
		}
		sel = &s
	} else if base != nil {
		sel = base
	}
	var bm *roaring.Bitmap
	if sel != nil {
		bm = sel.Bitmap()
	}
	Finish(p, res, rows, bm)
	span.SetAttrInt("matched", res.Matched)

	if len(p.Aggregates) > 0 {
		if err := e.runAggregates(ctx, p, cols, sel, res); err != nil {
			span.SetError(err)
			return nil, err
		}
	}
	return res, nil
}

// Finish fills in what a result says about its selection, sel (nil: every
// one of rows rows): Rows, Matched, the row ids up to the plan's row limit
// when it asks for them, and the selection's bytes for return=bitmap. The
// executor and the router's gather both end a query with it.
func Finish(p *Plan, res *Result, rows int, sel *roaring.Bitmap) {
	res.Rows, res.Matched = rows, int64(rows)
	if sel != nil {
		res.Matched = int64(sel.Cardinality())
	}
	if p.Rows {
		limit := p.RowLimit
		if limit == 0 {
			limit = DefaultRowLimit
		}
		n := min(limit, int(res.Matched))
		res.RowIDs = make([]uint32, 0, n)
		if sel == nil {
			for r := range n {
				res.RowIDs = append(res.RowIDs, uint32(r))
			}
		} else {
			sel.ForEach(func(r uint32) bool {
				if len(res.RowIDs) >= limit {
					return false
				}
				res.RowIDs = append(res.RowIDs, r)
				return true
			})
		}
		res.RowsTruncated = int64(len(res.RowIDs)) < res.Matched
	}
	if p.Return == ReturnBitmap {
		if sel == nil {
			sel = roaring.New()
			sel.AddRange(0, uint32(rows))
		}
		res.Bitmap = sel.AppendTo(nil)
	}
}

// evalNode evaluates a filter node under an optional restriction: the
// result S satisfies matches∩restrict ⊆ S ⊆ matches, so intersecting at
// the top (or at each AND step) yields exact selections while letting
// leaves skip blocks the restriction already rules out. AND children
// are evaluated left to right with the running intersection as the next
// child's restriction — the "selection vector flows between predicates"
// path — and stop early once the intersection is empty.
func (e *Executor) evalNode(ctx context.Context, n *Node, cols map[string]*Col, restrict *btrblocks.Selection, st *Stats) (btrblocks.Selection, error) {
	switch n.Op {
	case "and":
		ctx, span := obs.StartChild(ctx, "query.and")
		span.SetAttrInt("children", int64(len(n.Children)))
		cur := restrict
		var acc btrblocks.Selection
		for i, child := range n.Children {
			cs, err := e.evalNode(ctx, child, cols, cur, st)
			if err != nil {
				span.SetError(err)
				span.End()
				return btrblocks.Selection{}, err
			}
			if i == 0 {
				acc = cs
			} else {
				acc = acc.And(cs)
			}
			cur = &acc
			if acc.IsEmpty() {
				break
			}
		}
		span.SetAttrInt("matched", int64(acc.Cardinality()))
		span.End()
		return acc, nil
	case "or":
		ctx, span := obs.StartChild(ctx, "query.or")
		span.SetAttrInt("children", int64(len(n.Children)))
		acc := btrblocks.NewSelection()
		for _, child := range n.Children {
			cs, err := e.evalNode(ctx, child, cols, restrict, st)
			if err != nil {
				span.SetError(err)
				span.End()
				return btrblocks.Selection{}, err
			}
			acc = acc.Or(cs)
		}
		span.SetAttrInt("matched", int64(acc.Cardinality()))
		span.End()
		return acc, nil
	default:
		return e.evalLeaf(ctx, n, cols[n.Column], restrict, st)
	}
}

// evalLeaf evaluates one predicate over one column: bind the literals
// against the column type, prune candidate blocks with the metadata
// sidecar and the flowed-in restriction, then evaluate the survivors in
// the compressed domain.
func (e *Executor) evalLeaf(ctx context.Context, n *Node, c *Col, restrict *btrblocks.Selection, st *Stats) (btrblocks.Selection, error) {
	bl, err := bindLeaf(n, c.Index.Type)
	if err != nil {
		return btrblocks.Selection{}, err
	}
	total := len(c.Index.Blocks)
	candidates := allBlockIDs(total)
	if m := usableMeta(c); m != nil && bl.prune != nil {
		candidates = bl.prune(m)
		if candidates == nil {
			candidates = []int{}
		}
	}
	if restrict != nil {
		candidates = intersectSorted(candidates, restrictBlocks(c.Index, restrict))
	}
	ctx, span := obs.StartChild(ctx, "query.pred")
	span.SetAttr("column", n.Column)
	span.SetAttr("op", n.Op)
	span.SetAttrInt("blocks_total", int64(total))
	span.SetAttrInt("blocks_scanned", int64(len(candidates)))
	sel, ps, err := c.Index.SelectBlocksContext(ctx, c.Data, bl.pred, candidates, e.Options)
	span.SetError(err)
	if err == nil {
		span.SetAttrInt("matched", int64(sel.Cardinality()))
	}
	span.End()
	st.Predicates++
	st.BlocksTotal += int64(total)
	st.BlocksScanned += int64(len(candidates))
	st.BlocksPruned += int64(total - len(candidates))
	st.Paths.Add(ps)
	return sel, err
}

// runAggregates folds each referenced column once and renders every
// requested aggregate from the shared fold. Count-only columns are
// answered from block headers and NULL bitmaps alone.
func (e *Executor) runAggregates(ctx context.Context, p *Plan, cols map[string]*Col, sel *btrblocks.Selection, res *Result) error {
	needsValues := make(map[string]bool)
	order := make([]string, 0, len(p.Aggregates))
	for _, a := range p.Aggregates {
		if _, seen := needsValues[a.Column]; !seen {
			order = append(order, a.Column)
		}
		needsValues[a.Column] = needsValues[a.Column] || a.Op != "count"
	}
	folded := make(map[string]btrblocks.Aggregate, len(order))
	counts := make(map[string]int64, len(order))
	for _, col := range order {
		c := cols[col]
		ctx, span := obs.StartChild(ctx, "query.agg")
		span.SetAttr("column", col)
		var err error
		if needsValues[col] {
			var agg btrblocks.Aggregate
			var ps btrblocks.SelectStats
			agg, ps, err = c.Index.AggregateBlocksContext(ctx, c.Data, nil, sel, e.Options)
			res.Stats.Paths.Add(ps)
			folded[col], counts[col] = agg, agg.Count
		} else {
			counts[col], err = c.Index.CountNotNullBlocksContext(ctx, c.Data, nil, sel, e.Options)
		}
		span.SetAttrInt("count", counts[col])
		span.SetError(err)
		span.End()
		if err != nil {
			return err
		}
	}
	res.Aggregates = make([]AggResult, len(p.Aggregates))
	for i, a := range p.Aggregates {
		res.Aggregates[i] = renderAgg(a, cols[a.Column].Index.Type, folded[a.Column], counts[a.Column])
	}
	return nil
}

// renderAgg renders one aggregate result; see AggResult for the Value
// encoding.
func renderAgg(spec AggSpec, typ btrblocks.Type, agg btrblocks.Aggregate, count int64) AggResult {
	out := AggResult{Op: spec.Op, Column: spec.Column, Type: typ.String(), Count: count}
	if spec.Op == "count" {
		out.Value = strconv.FormatInt(count, 10)
		return out
	}
	if count == 0 {
		return out
	}
	formatInt := func(v int64) string { return strconv.FormatInt(v, 10) }
	formatDouble := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch spec.Op {
	case "sum":
		switch typ {
		case btrblocks.TypeInt, btrblocks.TypeInt64:
			out.Value = formatInt(agg.IntSum)
		case btrblocks.TypeDouble:
			out.Value = formatDouble(agg.FloatSum)
		}
	case "min":
		switch typ {
		case btrblocks.TypeInt, btrblocks.TypeInt64:
			out.Value = formatInt(agg.IntMin)
		case btrblocks.TypeDouble:
			out.Value = formatDouble(agg.FloatMin)
		case btrblocks.TypeString:
			out.Value = agg.StrMin
		}
	case "max":
		switch typ {
		case btrblocks.TypeInt, btrblocks.TypeInt64:
			out.Value = formatInt(agg.IntMax)
		case btrblocks.TypeDouble:
			out.Value = formatDouble(agg.FloatMax)
		case btrblocks.TypeString:
			out.Value = agg.StrMax
		}
	}
	return out
}

// --- binding ---

// boundLeaf is a leaf bound against its column type: the typed predicate
// plus a pruner deriving candidate blocks from the metadata sidecar (nil
// when the predicate shape has no sound pruning rule — scan everything).
type boundLeaf struct {
	pred  btrblocks.Predicate
	prune func(*metadata.ColumnMeta) []int
}

// bindLeaf parses a leaf's literals against the column type. Pruning is
// conservative: it may keep blocks that contain no match (the kernel
// rejects them), but never drops a block that could — the property the
// metadata soundness tests pin down.
func bindLeaf(n *Node, typ btrblocks.Type) (boundLeaf, error) {
	what := n.Op + " on " + strconv.Quote(n.Column)
	switch n.Op {
	case "notnull":
		return boundLeaf{pred: btrblocks.NotNull(), prune: (*metadata.ColumnMeta).PruneNotNull}, nil
	case "eq":
		switch typ {
		case btrblocks.TypeInt:
			v, err := parseInt32Lit(n.Value, what)
			if err != nil {
				return boundLeaf{}, err
			}
			return boundLeaf{pred: btrblocks.IntEq(v), prune: func(m *metadata.ColumnMeta) []int {
				return m.PruneIntRange(v, v)
			}}, nil
		case btrblocks.TypeInt64:
			v, err := parseInt64Lit(n.Value, what)
			if err != nil {
				return boundLeaf{}, err
			}
			return boundLeaf{pred: btrblocks.Int64Eq(v), prune: func(m *metadata.ColumnMeta) []int {
				return m.PruneInt64Range(v, v)
			}}, nil
		case btrblocks.TypeDouble:
			v, err := parseDoubleLit(n.Value, what)
			if err != nil {
				return boundLeaf{}, err
			}
			bl := boundLeaf{pred: btrblocks.DoubleEq(v)}
			if !math.IsNaN(v) {
				// NaN blocks are widened to (-Inf, +Inf) in the metadata, so a
				// range prune keeps them; a NaN probe itself cannot range-prune.
				bl.prune = func(m *metadata.ColumnMeta) []int { return m.PruneDoubleRange(v, v) }
			}
			return bl, nil
		default:
			v, err := parseStringLit(n.Value, what)
			if err != nil {
				return boundLeaf{}, err
			}
			return boundLeaf{pred: btrblocks.StringEq(v), prune: func(m *metadata.ColumnMeta) []int {
				return m.PruneStringEquals(v)
			}}, nil
		}
	case "range":
		return bindRange(n, typ, what)
	case "in":
		return bindIn(n, typ, what)
	}
	return boundLeaf{}, planErrf("unknown filter op %q", n.Op)
}

func bindRange(n *Node, typ btrblocks.Type, what string) (boundLeaf, error) {
	switch typ {
	case btrblocks.TypeInt:
		lo, hi := int32(math.MinInt32), int32(math.MaxInt32)
		var err error
		if n.Lo != nil {
			if lo, err = parseInt32Lit(n.Lo, what+" lo"); err != nil {
				return boundLeaf{}, err
			}
		}
		if n.Hi != nil {
			if hi, err = parseInt32Lit(n.Hi, what+" hi"); err != nil {
				return boundLeaf{}, err
			}
		}
		return boundLeaf{pred: btrblocks.IntRange(lo, hi), prune: func(m *metadata.ColumnMeta) []int {
			return m.PruneIntRange(lo, hi)
		}}, nil
	case btrblocks.TypeInt64:
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		var err error
		if n.Lo != nil {
			if lo, err = parseInt64Lit(n.Lo, what+" lo"); err != nil {
				return boundLeaf{}, err
			}
		}
		if n.Hi != nil {
			if hi, err = parseInt64Lit(n.Hi, what+" hi"); err != nil {
				return boundLeaf{}, err
			}
		}
		return boundLeaf{pred: btrblocks.Int64Range(lo, hi), prune: func(m *metadata.ColumnMeta) []int {
			return m.PruneInt64Range(lo, hi)
		}}, nil
	case btrblocks.TypeDouble:
		lo, hi := math.Inf(-1), math.Inf(1)
		var err error
		if n.Lo != nil {
			if lo, err = parseDoubleLit(n.Lo, what+" lo"); err != nil {
				return boundLeaf{}, err
			}
		}
		if n.Hi != nil {
			if hi, err = parseDoubleLit(n.Hi, what+" hi"); err != nil {
				return boundLeaf{}, err
			}
		}
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return boundLeaf{}, planErrf("%s: NaN range bound matches nothing", what)
		}
		return boundLeaf{pred: btrblocks.DoubleRange(lo, hi), prune: func(m *metadata.ColumnMeta) []int {
			return m.PruneDoubleRange(lo, hi)
		}}, nil
	default:
		if n.Hi == nil {
			return boundLeaf{}, planErrf("%s: string ranges need hi (no upper-unbounded form)", what)
		}
		lo := ""
		var err error
		if n.Lo != nil {
			if lo, err = parseStringLit(n.Lo, what+" lo"); err != nil {
				return boundLeaf{}, err
			}
		}
		hi, err := parseStringLit(n.Hi, what+" hi")
		if err != nil {
			return boundLeaf{}, err
		}
		// The metadata layer has no string-range rule (bounds are
		// prefix-truncated); string ranges scan every block.
		return boundLeaf{pred: btrblocks.StringRange(lo, hi)}, nil
	}
}

func bindIn(n *Node, typ btrblocks.Type, what string) (boundLeaf, error) {
	switch typ {
	case btrblocks.TypeInt:
		vs := make([]int32, len(n.Values))
		for i, raw := range n.Values {
			v, err := parseInt32Lit(raw, what)
			if err != nil {
				return boundLeaf{}, err
			}
			vs[i] = v
		}
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			lo, hi = min(lo, v), max(hi, v)
		}
		return boundLeaf{pred: btrblocks.IntIn(vs...), prune: func(m *metadata.ColumnMeta) []int {
			return m.PruneIntRange(lo, hi)
		}}, nil
	case btrblocks.TypeInt64:
		vs := make([]int64, len(n.Values))
		for i, raw := range n.Values {
			v, err := parseInt64Lit(raw, what)
			if err != nil {
				return boundLeaf{}, err
			}
			vs[i] = v
		}
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			lo, hi = min(lo, v), max(hi, v)
		}
		return boundLeaf{pred: btrblocks.Int64In(vs...), prune: func(m *metadata.ColumnMeta) []int {
			return m.PruneInt64Range(lo, hi)
		}}, nil
	case btrblocks.TypeDouble:
		vs := make([]float64, len(n.Values))
		hasNaN := false
		for i, raw := range n.Values {
			v, err := parseDoubleLit(raw, what)
			if err != nil {
				return boundLeaf{}, err
			}
			vs[i] = v
			hasNaN = hasNaN || math.IsNaN(v)
		}
		bl := boundLeaf{pred: btrblocks.DoubleIn(vs...)}
		if !hasNaN {
			lo, hi := vs[0], vs[0]
			for _, v := range vs {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			bl.prune = func(m *metadata.ColumnMeta) []int { return m.PruneDoubleRange(lo, hi) }
		}
		return bl, nil
	default:
		vs := make([]string, len(n.Values))
		for i, raw := range n.Values {
			v, err := parseStringLit(raw, what)
			if err != nil {
				return boundLeaf{}, err
			}
			vs[i] = v
		}
		return boundLeaf{pred: btrblocks.StringIn(vs...), prune: func(m *metadata.ColumnMeta) []int {
			var out []int
			for _, v := range vs {
				out = unionSorted(out, m.PruneStringEquals(v))
			}
			if out == nil {
				out = []int{}
			}
			return out
		}}, nil
	}
}

// --- block-list helpers ---

// usableMeta returns the column's metadata sidecar only when it agrees
// with the index's block layout — a stale sidecar silently disables
// pruning instead of corrupting results.
func usableMeta(c *Col) *metadata.ColumnMeta {
	m := c.Meta
	if m == nil || m.Type != c.Index.Type || len(m.Blocks) != len(c.Index.Blocks) {
		return nil
	}
	for i, b := range m.Blocks {
		if b.Rows != c.Index.Blocks[i].Rows {
			return nil
		}
	}
	return m
}

func allBlockIDs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// restrictBlocks lists the blocks holding at least one selected row,
// reading the selection a block's words at a time.
func restrictBlocks(ix *btrblocks.ColumnIndex, r *btrblocks.Selection) []int {
	out := []int{}
	if r.IsEmpty() {
		return out
	}
	var words []uint64
	for b, ref := range ix.Blocks {
		words = r.Bitmap().Words(uint32(ref.StartRow), uint32(ref.StartRow+ref.Rows), words)
		if slices.ContainsFunc(words, func(w uint64) bool { return w != 0 }) {
			out = append(out, b)
		}
	}
	return out
}

func intersectSorted(a, b []int) []int {
	out := []int{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
