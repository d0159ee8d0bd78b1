package cluster

// Scatter-gather execution of query plans (internal/query's format)
// across the cluster. The scatter unit is the filter leaf: each leaf is
// a single-column sub-plan answered by any replica of that column's
// file (with the usual failover and repair enqueueing), returning its
// selection as roaring wire bytes. The router re-walks the filter tree
// locally, merging leaf bitmaps with And/Or, then pushes aggregates
// down per column with the merged selection attached — so replicas
// fold only the rows the filter kept, and the router never touches
// column bytes itself.

import (
	"context"
	"fmt"
	"sync"

	"btrblocks/internal/obs"
	"btrblocks/internal/query"
	"btrblocks/internal/roaring"
)

// Query executes a validated plan against the cluster. Results are
// bit-identical to a single btrserved node hosting every referenced
// file: leaf selections are exact, the merge mirrors the executor's
// And/Or semantics, and aggregate legs fold under the merged selection.
// Any leg failing on every replica fails the query with that leg's
// error (so a file damaged everywhere still surfaces as 422).
func (r *Router) Query(ctx context.Context, p *query.Plan) (*query.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r.metrics.PlanQueries.Add(1)
	ctx, span := obs.StartChild(ctx, "query.scatter")
	defer span.End()

	rows := -1
	rowsFrom := ""
	checkRows := func(legRows int, column string) error {
		if rows == -1 {
			rows, rowsFrom = legRows, column
			return nil
		}
		if legRows != rows {
			return fmt.Errorf("%w: columns disagree on row count: %q has %d rows, %q has %d",
				query.ErrPlan, rowsFrom, rows, column, legRows)
		}
		return nil
	}

	res := &query.Result{}
	var sel *roaring.Bitmap

	// Scatter the filter leaves; gather bitmaps keyed by leaf node. The
	// plan's base selection rides along on every leg, so leaves can skip
	// blocks it already rules out and the leg results come back already
	// intersected with it.
	leaves := p.Leaves()
	if len(leaves) > 0 {
		bitmaps := make([]*roaring.Bitmap, len(leaves))
		legStats := make([]query.Stats, len(leaves))
		errs := make([]error, len(leaves))
		legRows := make([]int, len(leaves))
		sem := make(chan struct{}, r.cfg.ScatterWorkers)
		var wg sync.WaitGroup
		for i, leaf := range leaves {
			wg.Add(1)
			go func(i int, leaf *query.Node) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				bitmaps[i], legRows[i], legStats[i], errs[i] = r.queryLeaf(ctx, p, leaf)
			}(i, leaf)
		}
		wg.Wait()
		for i, leaf := range leaves {
			if errs[i] != nil {
				span.SetError(errs[i])
				return nil, errs[i]
			}
			if err := checkRows(legRows[i], leaf.Column); err != nil {
				span.SetError(err)
				return nil, err
			}
			res.Stats.Add(legStats[i])
		}
		byLeaf := make(map[*query.Node]*roaring.Bitmap, len(leaves))
		for i, leaf := range leaves {
			byLeaf[leaf] = bitmaps[i]
		}
		sel = mergeFilter(p.Filter, byLeaf)
	} else if len(p.Selection) > 0 {
		// No filter: the base selection alone drives row output and
		// aggregate restriction, exactly as in the single-node executor.
		bm, used, err := roaring.FromBytes(p.Selection)
		if err != nil || used != len(p.Selection) {
			err = fmt.Errorf("%w: bad selection bytes", query.ErrPlan)
			span.SetError(err)
			return nil, err
		}
		sel = bm
	}

	if len(p.Aggregates) > 0 {
		var selBytes []byte
		if sel != nil {
			selBytes = sel.AppendTo(nil)
		}
		aggs, aggRows, err := r.queryAggregates(ctx, p, selBytes, res)
		if err != nil {
			span.SetError(err)
			return nil, err
		}
		for col, n := range aggRows {
			if err := checkRows(n, col); err != nil {
				span.SetError(err)
				return nil, err
			}
		}
		res.Aggregates = aggs
	}

	query.Finish(p, res, rows, sel)
	span.SetAttrInt("matched", res.Matched)
	span.SetAttrInt("legs", int64(len(leaves)))
	return res, nil
}

// queryLeaf runs one filter leaf as a single-column sub-plan against
// the leaf column's replicas, returning the leaf's selection bitmap,
// the column's row count, and the leg's executor stats.
func (r *Router) queryLeaf(ctx context.Context, p *query.Plan, leaf *query.Node) (*roaring.Bitmap, int, query.Stats, error) {
	r.metrics.PlanQueryLegs.Add(1)
	ctx, span := obs.StartChild(ctx, "query.leg")
	span.SetAttr("column", leaf.Column)
	span.SetAttr("op", leaf.Op)
	defer span.End()

	sub := &query.Plan{Filter: leaf, Return: query.ReturnBitmap, Selection: p.Selection}
	legRes, err := failover(r, ctx, leaf.Column, "query", func(n *Node) (*query.Result, error) {
		return n.Client.Query(ctx, sub)
	})
	if err != nil {
		span.SetError(err)
		return nil, 0, query.Stats{}, err
	}
	bm, used, err := roaring.FromBytes(legRes.Bitmap)
	if err != nil || used != len(legRes.Bitmap) {
		err = fmt.Errorf("cluster: query leg %s: bad bitmap in response", leaf.Column)
		span.SetError(err)
		return nil, 0, query.Stats{}, err
	}
	span.SetAttrInt("matched", int64(bm.Cardinality()))
	return bm, legRes.Rows, legRes.Stats, nil
}

// queryAggregates pushes the plan's aggregates down per referenced
// column (one leg per column, folding every op over that column in one
// pass) with the merged selection attached, and reassembles the results
// in the plan's aggregate order. Returns the per-column row counts for
// the caller's consistency check.
func (r *Router) queryAggregates(ctx context.Context, p *query.Plan, selBytes []byte, res *query.Result) ([]query.AggResult, map[string]int, error) {
	order := make([]string, 0, len(p.Aggregates))
	specs := make(map[string][]query.AggSpec)
	slots := make(map[string][]int)
	for i, a := range p.Aggregates {
		if _, seen := specs[a.Column]; !seen {
			order = append(order, a.Column)
		}
		specs[a.Column] = append(specs[a.Column], a)
		slots[a.Column] = append(slots[a.Column], i)
	}

	results := make([]*query.Result, len(order))
	errs := make([]error, len(order))
	sem := make(chan struct{}, r.cfg.ScatterWorkers)
	var wg sync.WaitGroup
	for i, col := range order {
		wg.Add(1)
		go func(i int, col string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r.metrics.PlanQueryLegs.Add(1)
			ctx, span := obs.StartChild(ctx, "query.agg-leg")
			span.SetAttr("column", col)
			defer span.End()
			sub := &query.Plan{Aggregates: specs[col], Selection: selBytes}
			results[i], errs[i] = failover(r, ctx, col, "query-agg", func(n *Node) (*query.Result, error) {
				return n.Client.Query(ctx, sub)
			})
			span.SetError(errs[i])
		}(i, col)
	}
	wg.Wait()

	out := make([]query.AggResult, len(p.Aggregates))
	aggRows := make(map[string]int, len(order))
	for i, col := range order {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		legRes := results[i]
		if len(legRes.Aggregates) != len(specs[col]) {
			return nil, nil, fmt.Errorf("cluster: aggregate leg %s: %d results for %d specs",
				col, len(legRes.Aggregates), len(specs[col]))
		}
		aggRows[col] = legRes.Rows
		res.Stats.Add(legRes.Stats)
		for j, slot := range slots[col] {
			out[slot] = legRes.Aggregates[j]
		}
	}
	return out, aggRows, nil
}

// mergeFilter re-walks the filter tree, combining the gathered leaf
// bitmaps with the same And/Or semantics the single-node executor
// applies — leaf selections are exact, so the merge is too.
func mergeFilter(n *query.Node, byLeaf map[*query.Node]*roaring.Bitmap) *roaring.Bitmap {
	switch n.Op {
	case "and":
		acc := mergeFilter(n.Children[0], byLeaf)
		for _, c := range n.Children[1:] {
			acc = roaring.And(acc, mergeFilter(c, byLeaf))
		}
		return acc
	case "or":
		acc := mergeFilter(n.Children[0], byLeaf)
		for _, c := range n.Children[1:] {
			acc = roaring.Or(acc, mergeFilter(c, byLeaf))
		}
		return acc
	default:
		return byLeaf[n]
	}
}
