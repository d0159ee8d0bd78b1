package cluster

import (
	"sync/atomic"

	"btrblocks/internal/obs"
)

// Metrics holds the router's operational counters: scatter-gather and
// failover behavior, hedged-request outcomes, repair-loop progress, and
// per-replica and per-route request series. All hot-path fields are
// atomics; Registry lists them as /metrics exposes them.
type Metrics struct {
	BlockFetches     atomic.Int64 // logical block fetches routed
	Failovers        atomic.Int64 // extra replica attempts after a failure
	DamageDetected   atomic.Int64 // replica responses classified as block damage (422/410)
	Hedges           atomic.Int64 // hedge legs fired after the latency budget
	HedgeWins        atomic.Int64 // fetches won by the hedge leg
	PlanQueries      atomic.Int64 // query plans routed via /v1/query
	PlanQueryLegs    atomic.Int64 // per-leaf and per-column sub-queries scattered
	RepairsQueued    atomic.Int64
	RepairsSucceeded atomic.Int64
	RepairsFailed    atomic.Int64 // given up after the attempt budget
	RepairsDropped   atomic.Int64 // queue full; task discarded
	NodesUp          atomic.Int64 // gauge: nodes whose last probe succeeded
	ProbeTransitions atomic.Int64 // up<->down flips observed by the prober

	// Per-replica series, labeled by node name.
	ReplicaRequests obs.CounterGroup
	ReplicaErrors   obs.CounterGroup
	ReplicaLatency  obs.HistogramGroup // successful fetch latency

	// HTTP is the per-route series of the router's Server.
	HTTP obs.Routes
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics { return &Metrics{} }

// Registry lists the metrics as btrrouted exposes them on /metrics,
// followed by the span recorder's counters.
func (m *Metrics) Registry(spans *obs.SpanRecorder) *obs.Registry {
	r := &obs.Registry{}
	r.Counter("btrrouted_block_fetches_total", "Logical block fetches routed across replicas.", &m.BlockFetches)
	r.Counter("btrrouted_failovers_total", "Extra replica attempts after a replica failure.", &m.Failovers)
	r.Counter("btrrouted_damage_detected_total", "Replica responses classified as block damage (422 corrupt / 410 quarantined).", &m.DamageDetected)
	r.Counter("btrrouted_hedged_requests_total", "Hedge legs fired after the per-replica latency budget.", &m.Hedges)
	r.Counter("btrrouted_hedge_wins_total", "Block fetches won by the hedge leg.", &m.HedgeWins)
	r.Counter("btrrouted_query_plans_total", "Query plans routed via /v1/query.", &m.PlanQueries)
	r.Counter("btrrouted_query_legs_total", "Per-leaf and per-column sub-queries scattered to replicas.", &m.PlanQueryLegs)
	r.Counter("btrrouted_repairs_queued_total", "Cross-replica repair tasks enqueued.", &m.RepairsQueued)
	r.Counter("btrrouted_repairs_succeeded_total", "Repairs that pushed a verified good copy onto the damaged replica.", &m.RepairsSucceeded)
	r.Counter("btrrouted_repairs_failed_total", "Repairs abandoned after the attempt budget.", &m.RepairsFailed)
	r.Counter("btrrouted_repairs_dropped_total", "Repair tasks dropped because the queue was full.", &m.RepairsDropped)
	r.Gauge("btrrouted_nodes_up", "Nodes whose last health probe succeeded.", &m.NodesUp)
	r.Counter("btrrouted_probe_transitions_total", "Node up/down transitions observed by the health prober.", &m.ProbeTransitions)
	r.CounterGroup("btrrouted_replica_requests_total", "Replica fetch attempts by node.", "node", &m.ReplicaRequests)
	r.CounterGroup("btrrouted_replica_errors_total", "Failed replica fetch attempts by node.", "node", &m.ReplicaErrors)
	r.HistogramGroup("btrrouted_replica_request_duration_seconds", "Successful replica fetch latency by node.", "node", &m.ReplicaLatency)
	r.Gauge("btrrouted_inflight_requests", "HTTP requests currently being served.", &m.HTTP.InFlight)
	r.Routes("btrrouted", &m.HTTP)
	r.Spans("btrrouted", spans)
	return r
}
