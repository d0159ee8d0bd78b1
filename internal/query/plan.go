// Package query implements the multi-column query layer over compressed
// BtrBlocks columns: a JSON plan format (a filter tree of eq/range/in/
// notnull leaves under and/or nodes, plus count/sum/min/max aggregates),
// metadata-driven block pruning, and an executor that evaluates leaves
// in the compressed domain via btrblocks.Select and flows roaring
// selection vectors between predicates. The HTTP surfaces (btrserved
// /v1/query, btrrouted's scatter) parse plans here so every entry point
// shares one validator: a plan that parses and validates is safe to
// execute — bad plans fail with ErrPlan (mapped to HTTP 400), never a
// panic or a 500.
package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// ErrPlan marks a malformed or unexecutable plan: syntax errors, unknown
// ops, type-mismatched literals, empty IN lists, unknown columns. The
// HTTP layer maps it to 400 Bad Request.
var ErrPlan = errors.New("query: bad plan")

// IsPlanError reports whether err is a client-side plan problem.
func IsPlanError(err error) bool { return errors.Is(err, ErrPlan) }

func planErrf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrPlan}, args...)...)
}

// Plan limits: they bound the work a hostile plan can demand before any
// column bytes are touched.
const (
	// MaxPlanBytes bounds the JSON plan body.
	MaxPlanBytes = 1 << 20
	// maxFilterDepth bounds and/or nesting.
	maxFilterDepth = 16
	// maxFilterNodes bounds the total filter tree size.
	maxFilterNodes = 128
	// maxInValues bounds one IN list.
	maxInValues = 1024
	// maxAggregates bounds the aggregate list.
	maxAggregates = 32
	// DefaultRowLimit caps returned row ids when the plan does not set
	// row_limit.
	DefaultRowLimit = 10_000
	// MaxRowLimit caps row_limit itself.
	MaxRowLimit = 1_000_000
)

// ReturnBitmap is the Plan.Return mode that ships the selection as
// roaring wire bytes (base64 in JSON) instead of row ids — the form the
// router's scatter legs use.
const ReturnBitmap = "bitmap"

// Plan is one query: an optional filter tree, optional aggregates, and
// output controls. The JSON form is the /v1/query request body.
type Plan struct {
	// Filter selects rows; nil selects every row.
	Filter *Node `json:"filter,omitempty"`
	// Aggregates are folded over the selected (non-NULL) rows.
	Aggregates []AggSpec `json:"aggregates,omitempty"`
	// Rows requests the selected row ids (up to RowLimit).
	Rows bool `json:"rows,omitempty"`
	// RowLimit caps returned row ids (default DefaultRowLimit).
	RowLimit int `json:"row_limit,omitempty"`
	// Return selects an extra output encoding: "" or ReturnBitmap.
	Return string `json:"return,omitempty"`
	// Selection, when set, is a base selection (roaring wire bytes) the
	// result is intersected with — how a router ships a previously merged
	// selection back down for aggregate legs.
	Selection []byte `json:"selection,omitempty"`
}

// Node is one filter-tree node. Internal nodes ("and", "or") use
// Children; leaves ("eq", "range", "in", "notnull") name a Column and
// carry literals as raw JSON, bound against the column's type at
// execution. Range bounds are inclusive; a missing numeric bound is
// unbounded on that side.
type Node struct {
	Op       string            `json:"op"`
	Children []*Node           `json:"children,omitempty"`
	Column   string            `json:"column,omitempty"`
	Value    json.RawMessage   `json:"value,omitempty"`
	Lo       json.RawMessage   `json:"lo,omitempty"`
	Hi       json.RawMessage   `json:"hi,omitempty"`
	Values   []json.RawMessage `json:"values,omitempty"`
}

// AggSpec is one requested aggregate: count, sum, min, or max over a
// column. Count counts non-NULL selected rows; sum is invalid for string
// columns.
type AggSpec struct {
	Op     string `json:"op"`
	Column string `json:"column"`
}

// ParsePlan decodes and validates a JSON plan. Every failure is an
// ErrPlan — unknown fields, trailing data, and structural problems are
// all client errors.
func ParsePlan(src []byte) (*Plan, error) {
	if len(src) > MaxPlanBytes {
		return nil, planErrf("plan exceeds %d bytes", MaxPlanBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(src))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, planErrf("%v", err)
	}
	if dec.More() {
		return nil, planErrf("trailing data after plan")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Validate checks the plan's structure (everything that can be checked
// without knowing column types; literals are bound at execution).
func (p *Plan) Validate() error {
	if p.Filter != nil {
		count := 0
		if err := validateNode(p.Filter, 1, &count); err != nil {
			return err
		}
	}
	if len(p.Aggregates) > maxAggregates {
		return planErrf("too many aggregates (%d > %d)", len(p.Aggregates), maxAggregates)
	}
	for i, a := range p.Aggregates {
		switch a.Op {
		case "count", "sum", "min", "max":
		default:
			return planErrf("aggregate %d: unknown op %q", i, a.Op)
		}
		if a.Column == "" {
			return planErrf("aggregate %d: missing column", i)
		}
	}
	if p.RowLimit < 0 {
		return planErrf("row_limit must be >= 0")
	}
	if p.RowLimit > MaxRowLimit {
		return planErrf("row_limit exceeds %d", MaxRowLimit)
	}
	switch p.Return {
	case "", ReturnBitmap:
	default:
		return planErrf("unknown return mode %q", p.Return)
	}
	if len(p.Columns()) == 0 {
		return planErrf("plan references no columns")
	}
	return nil
}

func validateNode(n *Node, depth int, count *int) error {
	if n == nil {
		return planErrf("null filter node")
	}
	if depth > maxFilterDepth {
		return planErrf("filter nested deeper than %d", maxFilterDepth)
	}
	*count++
	if *count > maxFilterNodes {
		return planErrf("filter has more than %d nodes", maxFilterNodes)
	}
	switch n.Op {
	case "and", "or":
		if len(n.Children) == 0 {
			return planErrf("%q needs children", n.Op)
		}
		if n.Column != "" {
			return planErrf("%q takes children, not a column", n.Op)
		}
		for _, c := range n.Children {
			if err := validateNode(c, depth+1, count); err != nil {
				return err
			}
		}
	case "eq":
		if err := needColumn(n); err != nil {
			return err
		}
		if n.Value == nil {
			return planErrf("eq on %q: missing value", n.Column)
		}
	case "range":
		if err := needColumn(n); err != nil {
			return err
		}
		if n.Lo == nil && n.Hi == nil {
			return planErrf("range on %q: needs lo and/or hi", n.Column)
		}
	case "in":
		if err := needColumn(n); err != nil {
			return err
		}
		if len(n.Values) == 0 {
			return planErrf("in on %q: empty value list", n.Column)
		}
		if len(n.Values) > maxInValues {
			return planErrf("in on %q: more than %d values", n.Column, maxInValues)
		}
	case "notnull":
		if err := needColumn(n); err != nil {
			return err
		}
	case "":
		return planErrf("filter node missing op")
	default:
		return planErrf("unknown filter op %q", n.Op)
	}
	return nil
}

func needColumn(n *Node) error {
	if n.Column == "" {
		return planErrf("%q needs a column", n.Op)
	}
	if len(n.Children) != 0 {
		return planErrf("%q takes a column, not children", n.Op)
	}
	return nil
}

// Columns returns every column the plan references, sorted.
func (p *Plan) Columns() []string {
	set := make(map[string]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.Column != "" {
			set[n.Column] = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Filter)
	for _, a := range p.Aggregates {
		if a.Column != "" {
			set[a.Column] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sortStrings(out)
	return out
}

// Leaves returns the filter's leaf nodes in tree order (empty when the
// plan has no filter) — the unit the router scatters.
func (p *Plan) Leaves() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		switch n.Op {
		case "and", "or":
			for _, c := range n.Children {
				walk(c)
			}
		default:
			out = append(out, n)
		}
	}
	walk(p.Filter)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// --- literal parsing (bind-time, typed) ---

// literalPreview bounds a raw literal for error messages.
func literalPreview(raw json.RawMessage) string {
	s := string(raw)
	if len(s) > 40 {
		s = s[:40] + "…"
	}
	return s
}

// parseInt32Lit accepts a JSON number or a JSON string holding one
// (json.Number reads both), which must be an integer in int32's range:
// `5` and `"5"` bind alike. An append binds only the number form.
func parseInt32Lit(raw json.RawMessage, what string) (int32, error) {
	var num json.Number
	if err := json.Unmarshal(raw, &num); err != nil {
		return 0, planErrf("%s: want an integer, got %s", what, literalPreview(raw))
	}
	v, err := strconv.ParseInt(num.String(), 10, 32)
	if err != nil {
		return 0, planErrf("%s: %s is not an int32", what, num.String())
	}
	return int32(v), nil
}

// parseInt64Lit is parseInt32Lit for int64's range: `5` and `"5"` bind
// alike.
func parseInt64Lit(raw json.RawMessage, what string) (int64, error) {
	var num json.Number
	if err := json.Unmarshal(raw, &num); err != nil {
		return 0, planErrf("%s: want an integer, got %s", what, literalPreview(raw))
	}
	v, err := strconv.ParseInt(num.String(), 10, 64)
	if err != nil {
		return 0, planErrf("%s: %s is not an int64", what, num.String())
	}
	return v, nil
}

// parseDoubleLit accepts a JSON number or a string parsed by
// strconv.ParseFloat — the string form is how NaN and ±Inf travel,
// since JSON itself cannot carry them.
func parseDoubleLit(raw json.RawMessage, what string) (float64, error) {
	var num json.Number
	if err := json.Unmarshal(raw, &num); err == nil {
		v, err := strconv.ParseFloat(num.String(), 64)
		if err != nil {
			return 0, planErrf("%s: %s is not a double", what, num.String())
		}
		return v, nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, planErrf("%s: %q is not a double", what, s)
		}
		return v, nil
	}
	return 0, planErrf("%s: want a double, got %s", what, literalPreview(raw))
}

func parseStringLit(raw json.RawMessage, what string) (string, error) {
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return "", planErrf("%s: want a string, got %s", what, literalPreview(raw))
	}
	return s, nil
}
