package blockstore

// The query surface of the store: POST /v1/query executes a JSON plan
// (internal/query's format) against hosted column files. Column names in
// the plan are store-relative file names; a column's BTRM sidecar
// (<name>.btrm), when hosted alongside it, provides the per-block bounds
// the executor prunes with before any compressed bytes are touched.

import (
	"context"
	"io"
	"net/http"

	"btrblocks/internal/obs"
	"btrblocks/internal/query"
)

// MetaSuffix is the naming convention tying a metadata sidecar to its
// column file: serving data/prices alongside data/prices.btrm enables
// block pruning for queries over data/prices.
const MetaSuffix = ".btrm"

// storeSource adapts the store's file set to the executor's Source: a
// plan column resolves to the file of the same name, and the file's
// sidecar (if hosted) supplies pruning bounds. A missing file is
// errNotFound so the HTTP layer answers 404, distinguishing "no such
// column" from a malformed plan's 400.
type storeSource struct {
	s *Store
}

func (src storeSource) Column(name string) (*query.Col, error) {
	f := src.s.File(name)
	if f == nil {
		return nil, errNotFound
	}
	c := &query.Col{Index: f.Index, Data: f.Data}
	if mf := src.s.File(name + MetaSuffix); mf != nil {
		// A stale or mismatched sidecar is handled downstream: the executor
		// cross-checks block counts and row counts and silently disables
		// pruning rather than risking a false negative.
		c.Meta = mf.Meta
	}
	return c, nil
}

// QueryContext executes a validated plan against the store's files and
// folds the run's pruning and path statistics into the store metrics.
func (s *Store) QueryContext(ctx context.Context, p *query.Plan) (*query.Result, error) {
	e := &query.Executor{Source: storeSource{s}, Options: s.cfg.Options}
	res, err := e.Run(ctx, p)
	if err != nil {
		return nil, err
	}
	s.metrics.QueryRequests.Add(1)
	s.metrics.QueryPredicates.Add(res.Stats.Predicates)
	s.metrics.QueryBlocksPruned.Add(res.Stats.BlocksPruned)
	s.metrics.QueryBlocksScanned.Add(res.Stats.BlocksScanned)
	return res, nil
}

// handleQuery serves POST /v1/query: a JSON plan in, a query.Result out.
// Plan problems — malformed JSON, unknown ops, type-mismatched literals,
// empty IN lists — are 400s; an unknown column file is 404; damaged
// blocks inside the scanned range surface as 422, never a 500.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, query.MaxPlanBytes))
	if err != nil {
		http.Error(w, "reading plan: "+err.Error(), http.StatusBadRequest)
		return
	}
	p, err := query.ParsePlan(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	_, span := obs.StartChild(r.Context(), "store.query")
	span.SetAttrInt("plan_bytes", int64(len(body)))
	res, err := s.store.QueryContext(r.Context(), p)
	span.SetError(err)
	if res != nil {
		span.SetAttrInt("matched", res.Matched)
		span.SetAttrInt("blocks_pruned", res.Stats.BlocksPruned)
		span.SetAttrInt("blocks_scanned", res.Stats.BlocksScanned)
	}
	span.End()
	if err != nil {
		if query.IsPlanError(err) {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.fail(w, err)
		return
	}
	_ = obs.WriteJSON(w, res)
}
