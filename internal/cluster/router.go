package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"btrblocks/internal/blockstore"
	"btrblocks/internal/obs"
)

// Config configures a Router. Zero values pick production-ready
// defaults; tests override the hedge knobs to force deterministic
// behavior.
type Config struct {
	// Nodes are the cluster members as "name=url" specs (ParseNodeSpec).
	Nodes []string
	// Replicas is the replication factor R (default 2, capped at N).
	Replicas int
	// VirtualNodes is the ring points per node (default
	// DefaultVirtualNodes).
	VirtualNodes int

	// HTTPClient, when set, backs every node client (tests install
	// fault-injecting transports; ClientOptions can override per node).
	HTTPClient *http.Client
	// ClientOptions, when set, appends per-node client options (applied
	// after the router's own, so tests can override anything).
	ClientOptions func(name string) []blockstore.ClientOption
	// AttemptTimeout bounds each HTTP attempt to a replica (default 5s).
	AttemptTimeout time.Duration
	// Retries is the per-request retry budget of each node client
	// (default 1 — the router's own failover is the real retry).
	Retries int
	// DownThreshold marks a node client down after that many consecutive
	// failed requests (default 3; see blockstore.WithEndpointDown).
	DownThreshold int
	// DownTTL is the fail-fast window of a down-marked client (default 5s).
	DownTTL time.Duration

	// ProbeInterval is the health-probe period (default 1s; <0 disables
	// the background prober).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration

	// DisableHedge turns hedged block fetches off entirely.
	DisableHedge bool
	// HedgeInitial is the hedge budget before a replica has
	// HedgeMinSamples latency observations (default 25ms).
	HedgeInitial time.Duration
	// HedgeMin/HedgeMax clamp the p95-derived hedge budget
	// (defaults 1ms / 250ms).
	HedgeMin time.Duration
	HedgeMax time.Duration
	// HedgeMinSamples is how many latency samples a replica needs before
	// its p95 replaces HedgeInitial (default 16).
	HedgeMinSamples int

	// RepairAttempts bounds how often one repair task is tried before it
	// is dropped (default 3).
	RepairAttempts int
	// RepairBackoff separates attempts of one repair task (default 250ms).
	RepairBackoff time.Duration
	// RepairQueue bounds the pending repair queue (default 64).
	RepairQueue int
	// RepairTimeout bounds one repair attempt end to end (default 30s).
	RepairTimeout time.Duration

	// ScatterWorkers bounds the concurrent legs of one routed query:
	// its filter leaves, then its aggregate columns (default 8).
	ScatterWorkers int

	// Log receives router events (default slog.Default()).
	Log *slog.Logger
	// Spans, when set, records router spans (fetch legs, repairs, HTTP
	// requests via Server).
	Spans *obs.SpanRecorder
}

func (c *Config) withDefaults() {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = 5 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 1
	}
	if c.DownThreshold == 0 {
		c.DownThreshold = 3
	}
	if c.DownTTL == 0 {
		c.DownTTL = 5 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.HedgeInitial == 0 {
		c.HedgeInitial = 25 * time.Millisecond
	}
	if c.HedgeMin == 0 {
		c.HedgeMin = time.Millisecond
	}
	if c.HedgeMax == 0 {
		c.HedgeMax = 250 * time.Millisecond
	}
	if c.HedgeMinSamples == 0 {
		c.HedgeMinSamples = 16
	}
	if c.RepairAttempts <= 0 {
		c.RepairAttempts = 3
	}
	if c.RepairBackoff == 0 {
		c.RepairBackoff = 250 * time.Millisecond
	}
	if c.RepairQueue <= 0 {
		c.RepairQueue = 64
	}
	if c.RepairTimeout <= 0 {
		c.RepairTimeout = 30 * time.Second
	}
	if c.ScatterWorkers <= 0 {
		c.ScatterWorkers = 8
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
}

// Router reads from a replicated blockstore cluster: every fetch walks
// the file's replicas in health-first ring order, failing over on
// errors, hedging slow primaries with a second replica, and feeding
// damage it observes (422 corrupt / 410 quarantined) into the repair
// loop, which pushes verified good copies back onto damaged replicas.
type Router struct {
	cfg     Config
	mem     *Membership
	metrics *Metrics
	log     *slog.Logger
	spans   *obs.SpanRecorder

	repairCh  chan repairTask
	pendingMu sync.Mutex
	pending   map[string]bool

	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewRouter validates the config and builds the node set. Call Start to
// launch the health prober and repair worker, Close to stop them.
func NewRouter(cfg Config) (*Router, error) {
	cfg.withDefaults()
	m := NewMetrics()
	clientOpts := func(name string) []blockstore.ClientOption {
		opts := []blockstore.ClientOption{
			blockstore.WithAttemptTimeout(cfg.AttemptTimeout),
			blockstore.WithRetries(cfg.Retries),
			blockstore.WithEndpointDown(cfg.DownThreshold, cfg.DownTTL),
		}
		if cfg.ClientOptions != nil {
			opts = append(opts, cfg.ClientOptions(name)...)
		}
		return opts
	}
	mem, err := newMembership(cfg.Nodes, cfg.Replicas, cfg.VirtualNodes, cfg.HTTPClient,
		clientOpts, cfg.ProbeInterval, cfg.ProbeTimeout, cfg.Log, m)
	if err != nil {
		return nil, err
	}
	return &Router{
		cfg:      cfg,
		mem:      mem,
		metrics:  m,
		log:      cfg.Log,
		spans:    cfg.Spans,
		repairCh: make(chan repairTask, cfg.RepairQueue),
		pending:  make(map[string]bool),
		quit:     make(chan struct{}),
	}, nil
}

// Start launches the health prober and the repair worker.
func (r *Router) Start() {
	r.mem.start()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.repairLoop()
	}()
}

// Close stops the background loops and waits for them.
func (r *Router) Close() {
	r.once.Do(func() { close(r.quit) })
	r.mem.close()
	r.wg.Wait()
}

// Metrics returns the router's counters.
func (r *Router) Metrics() *Metrics { return r.metrics }

// Membership returns the node set and ring.
func (r *Router) Membership() *Membership { return r.mem }

// orderFor returns a file's replicas in fetch-preference order: healthy
// nodes first (rotated by rot so concurrent block fetches of one file
// spread load across its replicas), then down nodes as a last resort —
// a probe can be stale, and a "down" replica that answers still beats
// a failed scan.
func (r *Router) orderFor(name string, rot int) []*Node {
	placed := r.mem.Place(name)
	up := make([]*Node, 0, len(placed))
	down := make([]*Node, 0)
	for _, n := range placed {
		if n.Up() {
			up = append(up, n)
		} else {
			down = append(down, n)
		}
	}
	if len(up) > 1 && rot > 0 {
		k := rot % len(up)
		rotated := make([]*Node, 0, len(up))
		rotated = append(rotated, up[k:]...)
		rotated = append(rotated, up[:k]...)
		up = rotated
	}
	return append(up, down...)
}

// legResult is one replica fetch attempt's outcome.
type legResult struct {
	frame []byte
	err   error
	node  *Node
	hedge bool
}

// FetchBlock fetches one decoded block: FetchBlockFrame, then a decode,
// for callers that want values. The router's block replies are written
// from the frame itself (blockstore.WriteBlockJSON for format=json).
func (r *Router) FetchBlock(ctx context.Context, name string, idx int) (*blockstore.BlockValues, error) {
	frame, err := r.FetchBlockFrame(ctx, name, idx)
	if err != nil {
		return nil, err
	}
	blk, err := blockstore.DecodeBlockFrame(name, frame)
	if err != nil {
		return nil, err
	}
	blk.Block = idx
	return blk, nil
}

// FetchBlockFrame fetches one block as its validated BTBK frame, walking
// the file's replicas: the primary is asked first; if it has not
// answered within the hedge budget (the primary replica's observed p95
// fetch latency, clamped) a hedge leg fires against the next replica and
// the first success wins, the loser cancelled. Failures — including
// block damage, which also enqueues a repair — fail over to the
// remaining replicas. The fetch fails only when every replica has
// failed.
func (r *Router) FetchBlockFrame(ctx context.Context, name string, idx int) ([]byte, error) {
	r.metrics.BlockFetches.Add(1)
	replicas := r.orderFor(name, idx)
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas for %s", name)
	}
	lctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the loser leg as soon as a winner returns

	// Buffered to the replica count: a cancelled loser's send never
	// blocks, so no goroutine outlives the fetch.
	results := make(chan legResult, len(replicas))
	next, inFlight := 0, 0
	launch := func(hedge bool) bool {
		if next >= len(replicas) {
			return false
		}
		n := replicas[next]
		next++
		inFlight++
		go r.fetchLeg(lctx, n, name, idx, hedge, results)
		return true
	}
	launch(false)

	var hedgeC <-chan time.Time
	if !r.cfg.DisableHedge && len(replicas) > 1 {
		t := time.NewTimer(r.hedgeBudget(replicas[0]))
		defer t.Stop()
		hedgeC = t.C
	}

	var errs []error
	for inFlight > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil // one hedge leg per fetch
			if launch(true) {
				r.metrics.Hedges.Add(1)
			}
		case res := <-results:
			inFlight--
			if res.err == nil {
				if res.hedge {
					r.metrics.HedgeWins.Add(1)
				}
				return res.frame, nil
			}
			if blockstore.IsBlockDamage(res.err) {
				r.metrics.DamageDetected.Add(1)
				r.enqueueRepair(name, res.node)
			}
			errs = append(errs, fmt.Errorf("%s: %w", res.node.Name, res.err))
			if launch(false) {
				r.metrics.Failovers.Add(1)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("cluster: block %d of %s: all %d replicas failed: %w",
		idx, name, len(replicas), errors.Join(errs...))
}

// fetchLeg is one replica attempt, run in its own goroutine. Latency is
// observed per node (feeding the hedge budget) and the attempt gets its
// own replica.fetch child span.
func (r *Router) fetchLeg(ctx context.Context, n *Node, name string, idx int, hedge bool, out chan<- legResult) {
	fctx, span := obs.StartChild(ctx, "replica.fetch")
	span.SetAttr("node", n.Name)
	span.SetAttr("file", name)
	span.SetAttrInt("block", int64(idx))
	if hedge {
		span.SetAttr("hedge", "true")
	}
	r.metrics.ReplicaRequests.Add(n.Name, 1)
	start := time.Now()
	frame, err := n.Client.BlockFrame(fctx, name, idx)
	if err != nil {
		r.metrics.ReplicaErrors.Add(n.Name, 1)
		span.SetError(err)
	} else {
		r.metrics.ReplicaLatency.At(n.Name).Observe(time.Since(start))
	}
	span.End()
	out <- legResult{frame: frame, err: err, node: n, hedge: hedge}
}

// hedgeBudget derives the hedge deadline from the primary replica's
// latency history: its p95 clamped to [HedgeMin, HedgeMax], or
// HedgeInitial until enough samples exist.
func (r *Router) hedgeBudget(primary *Node) time.Duration {
	h := r.metrics.ReplicaLatency.At(primary.Name)
	if h.Count() < int64(r.cfg.HedgeMinSamples) {
		return r.cfg.HedgeInitial
	}
	b := h.Quantile(0.95)
	if b < r.cfg.HedgeMin {
		b = r.cfg.HedgeMin
	}
	if b > r.cfg.HedgeMax {
		b = r.cfg.HedgeMax
	}
	return b
}

// failover runs op against a file's replicas in preference order until
// one succeeds. Block damage reported by a replica enqueues a repair
// before failing over.
func failover[T any](r *Router, ctx context.Context, name, what string, op func(*Node) (T, error)) (T, error) {
	var zero T
	replicas := r.orderFor(name, 0)
	if len(replicas) == 0 {
		return zero, fmt.Errorf("cluster: no replicas for %s", name)
	}
	var errs []error
	for i, n := range replicas {
		if i > 0 {
			r.metrics.Failovers.Add(1)
		}
		if ctx.Err() != nil {
			return zero, ctx.Err()
		}
		out, err := op(n)
		if err == nil {
			return out, nil
		}
		if blockstore.IsBlockDamage(err) {
			r.metrics.DamageDetected.Add(1)
			r.enqueueRepair(name, n)
		}
		errs = append(errs, fmt.Errorf("%s: %w", n.Name, err))
	}
	return zero, fmt.Errorf("cluster: %s %s: all %d replicas failed: %w",
		what, name, len(replicas), errors.Join(errs...))
}

// FileMeta fetches one file's metadata from any of its replicas.
func (r *Router) FileMeta(ctx context.Context, name string) (*blockstore.FileMeta, error) {
	return failover(r, ctx, name, "meta", func(n *Node) (*blockstore.FileMeta, error) {
		return n.Client.FileMeta(ctx, name)
	})
}

// Raw fetches a file's raw compressed bytes from any of its replicas.
func (r *Router) Raw(ctx context.Context, name string) ([]byte, error) {
	return failover(r, ctx, name, "raw", func(n *Node) ([]byte, error) {
		return n.Client.Raw(ctx, name)
	})
}

// Invalidate fans a cache invalidation out to every replica of a file
// (writers publish through this after replacing a file on all replicas).
// It fails if any replica the prober considers up rejects it.
func (r *Router) Invalidate(ctx context.Context, name string) (*blockstore.InvalidateResult, error) {
	var last *blockstore.InvalidateResult
	var errs []error
	for _, n := range r.mem.Place(name) {
		res, err := n.Client.Invalidate(ctx, name)
		if err != nil {
			if !n.Up() {
				continue // a down replica misses the invalidation; repair re-converges it
			}
			errs = append(errs, fmt.Errorf("%s: %w", n.Name, err))
			continue
		}
		last = res
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("cluster: invalidate %s: %w", name, errors.Join(errs...))
	}
	if last == nil {
		return nil, fmt.Errorf("cluster: invalidate %s: no replica reachable", name)
	}
	return last, nil
}

// Files returns the union of every reachable node's file listing,
// sorted by name. It fails only when no node answers.
func (r *Router) Files(ctx context.Context) ([]blockstore.FileMeta, error) {
	nodes := r.mem.Nodes()
	type nodeFiles struct {
		files []blockstore.FileMeta
		err   error
	}
	results := make([]nodeFiles, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			files, err := n.Client.Files(ctx)
			results[i] = nodeFiles{files: files, err: err}
		}(i, n)
	}
	wg.Wait()
	merged := make(map[string]blockstore.FileMeta)
	ok := false
	var errs []error
	for i, res := range results {
		if res.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", nodes[i].Name, res.err))
			continue
		}
		ok = true
		for _, f := range res.files {
			merged[f.Name] = f
		}
	}
	if !ok {
		return nil, fmt.Errorf("cluster: files: no node answered: %w", errors.Join(errs...))
	}
	out := make([]blockstore.FileMeta, 0, len(merged))
	for _, f := range merged {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
