package cluster

import (
	"net/http"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"btrblocks/internal/blockstore"
	"btrblocks/internal/obs"
)

// delayTransport injects a fixed latency before every round trip —
// seeded, deterministic replica skew for the hedge tests.
type delayTransport struct {
	d time.Duration
}

func (t delayTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	select {
	case <-time.After(t.d):
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// hedgeCluster builds a 2-node cluster (R=2, so every file is on both)
// with per-node injected latency, an instant hedge budget and a span
// recorder.
func hedgeCluster(t *testing.T, delays map[string]time.Duration) (*Router, map[string][]byte, []*testNode) {
	t.Helper()
	contents, _ := testCorpus(t)
	names := []string{"n1", "n2"}
	_, perNode := placeCorpus(t, contents, names, 2)
	nodes, specs := startNodes(t, names, perNode, blockstore.Config{})
	r := newTestRouter(t, specs, Config{
		Replicas:        2,
		HedgeInitial:    time.Millisecond,
		HedgeMinSamples: 1 << 30, // pin the budget to HedgeInitial
		Spans:           obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btrrouted"}),
		ClientOptions: func(name string) []blockstore.ClientOption {
			if d, ok := delays[name]; ok && d > 0 {
				return []blockstore.ClientOption{
					blockstore.WithHTTPClient(&http.Client{Transport: delayTransport{d: d}}),
				}
			}
			return nil
		},
	})
	return r, contents, nodes
}

// primaryFor returns the primary replica's name for (file, block) under
// healthy 2-way rotation.
func primaryFor(r *Router, name string, block int) string {
	return r.orderFor(name, block)[0].Name
}

// With a slow primary and a fast secondary, the hedge leg fires and
// wins; the result is still a single, correct block.
func TestHedgeSecondaryWins(t *testing.T) {
	const file = "t/i.btr"
	// Build the cluster first to learn block 0's primary, then rebuild
	// with that node slowed. Placement is deterministic, so the second
	// cluster places identically.
	probe, _, _ := hedgeCluster(t, nil)
	slow := primaryFor(probe, file, 0)
	r, _, _ := hedgeCluster(t, map[string]time.Duration{slow: 80 * time.Millisecond})

	// A root span over the fetch makes the replica legs record theirs.
	ctx, root := r.spans.StartRoot(testCtx, "fetch")
	blk, err := r.FetchBlock(ctx, file, 0)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if blk.Rows == 0 {
		t.Fatal("empty block")
	}
	m := r.Metrics()
	if m.Hedges.Load() != 1 {
		t.Fatalf("hedges %d, want 1", m.Hedges.Load())
	}
	if m.HedgeWins.Load() != 1 {
		t.Fatalf("hedge wins %d, want 1 (secondary should beat the %v primary)", m.HedgeWins.Load(), 80*time.Millisecond)
	}
	// Exactly one primary leg and one hedge leg — nothing double-fired.
	// The losing leg counts itself when its goroutine runs, which can be
	// after the fetch has returned.
	legs := func() int64 { return m.ReplicaRequests.At("n1").Load() + m.ReplicaRequests.At("n2").Load() }
	waitFor(t, 5*time.Second, "both legs counted", func() bool { return legs() >= 2 })
	if total := legs(); total != 2 {
		t.Fatalf("replica requests %d, want 2 (primary + hedge)", total)
	}
	// The hedge shows in the exposition and as a replica.fetch span
	// tagged hedge=true under the fetch.
	var text strings.Builder
	if _, err := m.Registry(r.spans).WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"btrrouted_hedged_requests_total 1\n", "btrrouted_hedge_wins_total 1\n"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}
	hedgeSpans := 0
	for _, s := range r.spans.Snapshot(obs.SpanFilter{}).Spans {
		if s.Name == "replica.fetch" && s.ParentID == root.SpanID().String() &&
			slices.Contains(s.Attrs, obs.Attr{Key: "hedge", Value: "true"}) {
			hedgeSpans++
		}
	}
	if hedgeSpans != 1 {
		t.Errorf("%d replica.fetch spans with hedge=true under the fetch, want 1", hedgeSpans)
	}
}

// With a fast primary and a slow secondary, the hedge fires but the
// primary wins — no hedge win is recorded and the result is correct.
func TestHedgePrimaryWins(t *testing.T) {
	const file = "t/i.btr"
	probe, _, _ := hedgeCluster(t, nil)
	primary := primaryFor(probe, file, 0)
	secondary := "n1"
	if primary == "n1" {
		secondary = "n2"
	}
	// Primary answers after 30ms (past the 1ms hedge budget, so the
	// hedge fires), secondary after 300ms (so the primary still wins).
	r, _, _ := hedgeCluster(t, map[string]time.Duration{
		primary:   30 * time.Millisecond,
		secondary: 300 * time.Millisecond,
	})

	blk, err := r.FetchBlock(testCtx, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Rows == 0 {
		t.Fatal("empty block")
	}
	m := r.Metrics()
	if m.Hedges.Load() != 1 {
		t.Fatalf("hedges %d, want 1", m.Hedges.Load())
	}
	if m.HedgeWins.Load() != 0 {
		t.Fatalf("hedge wins %d, want 0 (primary should win)", m.HedgeWins.Load())
	}
}

// Cancelled loser legs must not leak goroutines or double-deliver:
// after a burst of hedged fetches, the goroutine count settles back and
// every fetch produced exactly one result.
func TestHedgeLoserCancellationNoLeak(t *testing.T) {
	const file = "t/s.btr"
	probe, contents, _ := hedgeCluster(t, nil)
	slow := primaryFor(probe, file, 0)
	blocks := blockCount(t, contents[file])
	// Slow node loses every hedge race on the blocks it is primary for.
	r, _, _ := hedgeCluster(t, map[string]time.Duration{slow: 60 * time.Millisecond})

	before := runtime.NumGoroutine()
	const rounds = 30
	fetches := 0
	for i := 0; i < rounds; i++ {
		blk, err := r.FetchBlock(testCtx, file, i%blocks)
		if err != nil {
			t.Fatal(err)
		}
		if blk.Rows == 0 {
			t.Fatal("empty block")
		}
		fetches++
	}
	m := r.Metrics()
	if got := m.BlockFetches.Load(); got != int64(fetches) {
		t.Fatalf("block fetches %d, want %d — a fetch was double-counted", got, fetches)
	}
	// Total legs = one primary per fetch + one per fired hedge. More
	// would mean a leg double-fired; fewer, a lost result. A hedge is
	// counted when it fires and its leg when the leg's goroutine runs,
	// so wait for every leg before comparing.
	legs := func() int64 { return m.ReplicaRequests.At("n1").Load() + m.ReplicaRequests.At("n2").Load() }
	want := int64(fetches) + m.Hedges.Load()
	waitFor(t, 5*time.Second, "every leg counted", func() bool { return legs() >= want })
	if got := legs(); got != want {
		t.Fatalf("replica legs %d, want %d fetches + %d hedges", got, fetches, m.Hedges.Load())
	}
	// Cancelled losers are not endpoint failures: nothing may have been
	// down-marked or failed over on this healthy cluster.
	if m.Failovers.Load() != 0 {
		t.Fatalf("failovers %d on a healthy cluster — loser cancellation was treated as failure", m.Failovers.Load())
	}
	// Loser legs are cancelled and drain into the buffered channel; the
	// goroutine count must settle back near the baseline.
	waitFor(t, 5*time.Second, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+3
	})
}

// A hedge leg that fails must not fail the fetch while the primary is
// still in flight — the primary's answer wins.
func TestHedgeFailureDoesNotAbortPrimary(t *testing.T) {
	contents, _ := testCorpus(t)
	names := []string{"n1", "n2"}
	_, perNode := placeCorpus(t, contents, names, 2)

	const file = "t/d.btr"
	// Find block 0's primary under rotation, then damage the OTHER
	// node's copy: the hedge leg will hit the damaged replica and 422
	// while the slow primary still answers correctly.
	pr, _, _ := hedgeCluster(t, nil)
	primary := primaryFor(pr, file, 0)
	secondary := "n1"
	if primary == "n1" {
		secondary = "n2"
	}
	for i, n := range names {
		if n == secondary {
			perNode[i][file] = flipBlockByte(t, contents[file], 0)
		}
	}
	_, specs := startNodes(t, names, perNode, blockstore.Config{QuarantineThreshold: 1})
	r := newTestRouter(t, specs, Config{
		Replicas:        2,
		HedgeInitial:    time.Millisecond,
		HedgeMinSamples: 1 << 30,
		ClientOptions: func(name string) []blockstore.ClientOption {
			if name == primary {
				return []blockstore.ClientOption{
					blockstore.WithHTTPClient(&http.Client{Transport: delayTransport{d: 50 * time.Millisecond}}),
				}
			}
			return nil
		},
	})

	blk, err := r.FetchBlock(testCtx, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Rows == 0 {
		t.Fatal("empty block")
	}
	// The damaged hedge leg was detected and queued for repair.
	m := r.Metrics()
	if m.Hedges.Load() == 0 {
		t.Fatal("hedge never fired")
	}
	if m.DamageDetected.Load() == 0 {
		t.Fatal("damaged hedge replica not detected")
	}
}
