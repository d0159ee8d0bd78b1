// Command btrrouted fronts a cluster of btrserved nodes as one logical
// blockstore: column files are placed on R of N nodes by a consistent
// hash over stable node names, reads scatter-gather across the replicas
// with health-aware failover, slow primaries are hedged against a
// second replica (the budget derived from per-replica latency
// histograms), and replicas whose bytes fail their CRC are healed in
// the background by re-pushing a verified good copy from a healthy
// replica. The router speaks the btrserved wire protocol, so existing
// clients point at it unchanged. Its lifecycle — flags, debug listener,
// signals, shutdown summary — is internal/serverkit's, shared with
// btrserved and btringest.
//
// Usage:
//
//	btrrouted -nodes "n1=http://h1:8080,n2=http://h2:8080,n3=http://h3:8080"
//	          [-addr HOST:PORT] [-addr-file PATH] [-replicas R]
//	          [-probe-interval D] [-hedge-initial D] [-hedge-max D] [-no-hedge]
//	          [-debug-addr HOST:PORT] [-log-level LEVEL] [-span-sample N] [-span-slow D]
//	btrrouted -smoke
//
// -smoke is the cluster chaos gate: it generates a corpus, places it
// over three child node processes with R=2, then (1) verifies every
// file scans bit-correct through the router, (2) flips a byte on one
// replica of a multi-block file and proves scans stay correct while
// the repair loop heals the damaged replica, (3) SIGKILLs a node
// mid-scan and proves every scan still returns complete, bit-correct
// results, and (4) proves hedged requests fire and win against a
// latency-skewed replica — with the repair/hedge/failover activity
// visible in /metrics and /v1/spans. It exits non-zero on any miss.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"btrblocks"
	"btrblocks/internal/blockstore"
	"btrblocks/internal/cluster"
	"btrblocks/internal/obs"
	"btrblocks/internal/pbi"
	"btrblocks/internal/query"
	"btrblocks/internal/serverkit"
	"btrblocks/internal/smoke"
)

func main() {
	var kit serverkit.Flags
	kit.Register(flag.CommandLine, "127.0.0.1:9500")
	kit.RegisterLogLevel(flag.CommandLine)
	var (
		nodes     = flag.String("nodes", "", "comma-separated cluster members as name=url (required unless -smoke)")
		replicas  = flag.Int("replicas", 2, "replication factor R")
		vnodes    = flag.Int("vnodes", 0, "virtual nodes per member (0 = default)")
		probeIvl  = flag.Duration("probe-interval", time.Second, "health probe period (<0 disables)")
		hedgeInit = flag.Duration("hedge-initial", 25*time.Millisecond, "hedge budget before latency history exists")
		hedgeMax  = flag.Duration("hedge-max", 250*time.Millisecond, "upper clamp on the p95-derived hedge budget")
		noHedge   = flag.Bool("no-hedge", false, "disable hedged block fetches")
		smokeTest = flag.Bool("smoke", false, "self-test: 3-node cluster, byte-flip repair, mid-scan node kill, hedging")

		// Hidden child mode used by -smoke: serve one directory as a
		// plain blockstore node (a btrserved stand-in in this binary).
		nodeDir = flag.String("node-dir", "", "serve DIR as a single blockstore node (smoke child mode)")
	)
	flag.Parse()

	if *smokeTest {
		smoke.Exit("btrrouted", runSmoke())
	}

	logger := kit.Logger()
	if *nodeDir != "" {
		if err := runNode(*nodeDir, &kit, logger); err != nil {
			logger.Error("node", "err", err.Error())
			os.Exit(1)
		}
		return
	}
	if *nodes == "" {
		fmt.Fprintln(os.Stderr, "btrrouted: -nodes is required (or -smoke)")
		flag.Usage()
		os.Exit(2)
	}
	cfg := cluster.Config{
		Nodes:         serverkit.List(*nodes),
		Replicas:      *replicas,
		VirtualNodes:  *vnodes,
		ProbeInterval: *probeIvl,
		HedgeInitial:  *hedgeInit,
		HedgeMax:      *hedgeMax,
		DisableHedge:  *noHedge,
		Log:           logger,
		Spans:         kit.Spans("btrrouted", logger),
	}
	if err := serveRouter(cfg, &kit, logger); err != nil {
		logger.Error("serve", "err", err.Error())
		os.Exit(1)
	}
}

// serveRouter builds the router and runs it under the shared lifecycle.
func serveRouter(cfg cluster.Config, kit *serverkit.Flags, logger *slog.Logger) error {
	router, err := cluster.NewRouter(cfg)
	if err != nil {
		return err
	}
	router.Start()
	// Surface dead members before the first request rather than on it.
	probeCtx, probeCancel := context.WithTimeout(context.Background(), 5*time.Second)
	router.Membership().ProbeOnce(probeCtx)
	probeCancel()
	for _, st := range router.Membership().Statuses() {
		logger.Info("member", "node", st.Name, "endpoint", st.Endpoint, "up", st.Up)
	}
	m := router.Metrics()
	p := &serverkit.Process{
		Name:    "btrrouted",
		Handler: cluster.NewServer(router, logger),
		Log:     logger,
		Routes:  &m.HTTP,
		Stats: func() []any {
			return []any{"nodes", len(router.Membership().Nodes()), "replicas", router.Membership().Replicas(),
				"nodes_up", m.NodesUp.Load(), "block_fetches", m.BlockFetches.Load(),
				"failovers", m.Failovers.Load(), "hedges", m.Hedges.Load(),
				"repairs_succeeded", m.RepairsSucceeded.Load(), "repairs_failed", m.RepairsFailed.Load()}
		},
		Close: func() error { router.Close(); return nil },
	}
	return p.Run(context.Background(), kit)
}

// runNode serves one directory as a plain blockstore node — the smoke's
// btrserved stand-in so the cluster smoke is self-contained in this
// binary. Spans are enabled so router-originated traces continue here.
func runNode(dir string, kit *serverkit.Flags, logger *slog.Logger) error {
	store, err := blockstore.Open(dir, blockstore.Config{
		CacheBytes:          64 << 20,
		PrefetchBlocks:      2,
		PrefetchWorkers:     2,
		QuarantineThreshold: 2,
	})
	if err != nil {
		return err
	}
	spans := obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btrserved", Logger: logger})
	p := &serverkit.Process{
		Name:    "btrserved",
		Handler: blockstore.NewServer(store, blockstore.WithSpans(spans)),
		Log:     logger,
		Close:   func() error { store.Close(); return nil },
	}
	return p.Run(context.Background(), kit)
}

// ---------------------------------------------------------------------------
// Smoke: the cluster chaos gate.

// smokeNode is one child node process of the smoke cluster.
type smokeNode struct {
	name string
	dir  string
	cmd  *exec.Cmd
	base string
	cl   *blockstore.Client
}

func runSmoke() error {
	const (
		rows     = 8000
		seed     = 42
		replicas = 2
	)
	names := []string{"n1", "n2", "n3"}

	work, err := os.MkdirTemp("", "btrrouted-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// Generate the corpus and place every column file on R of the N
	// nodes with the same ring the router will build — writers and
	// routers agreeing on placement by node name is the whole point.
	ring, err := cluster.NewRing(names, 0)
	if err != nil {
		return err
	}
	opt := &btrblocks.Options{BlockSize: 4096}
	columns, err := smoke.Compress(pbi.Corpus(rows, seed), opt)
	if err != nil {
		return err
	}
	placed := make([][]int, len(columns)) // node indices, in preference order
	for i, c := range columns {
		placed[i] = ring.Place(c.Name, replicas)
		for _, ni := range placed[i] {
			if err := smoke.WriteFile(filepath.Join(work, names[ni]), c.Name, c.Data); err != nil {
				return err
			}
		}
	}

	// Spawn the three node processes.
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	nodes := make([]*smokeNode, len(names))
	defer func() {
		for _, n := range nodes {
			if n != nil && n.cmd != nil && n.cmd.Process != nil {
				n.cmd.Process.Kill()
				n.cmd.Wait()
			}
		}
	}()
	for i, name := range names {
		dir := filepath.Join(work, name)
		cmd, base, err := smoke.StartChild(self, filepath.Join(work, name+".addr"),
			"-node-dir", dir, "-log-level", "warn")
		if err != nil {
			return err
		}
		nodes[i] = &smokeNode{name: name, dir: dir, cmd: cmd, base: base, cl: blockstore.NewClient(base)}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// The router under test: health probes every 100ms so the kill phase
	// converges fast; hedging off so the repair phase's damage detection
	// is deterministic (a dedicated hedge phase covers hedging).
	specs := make([]string, len(nodes))
	for i, n := range nodes {
		specs[i] = n.name + "=" + n.base
	}
	logger := obs.NewLogger(os.Stderr, slog.LevelWarn)
	spans := obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btrrouted", Logger: logger})
	router, err := cluster.NewRouter(cluster.Config{
		Nodes:          specs,
		Replicas:       replicas,
		ProbeInterval:  100 * time.Millisecond,
		ProbeTimeout:   time.Second,
		DownTTL:        500 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
		DisableHedge:   true,
		RepairBackoff:  50 * time.Millisecond,
		Log:            logger,
		Spans:          spans,
	})
	if err != nil {
		return err
	}
	router.Start()
	defer router.Close()
	routerBase, stop, err := smoke.Serve(cluster.NewServer(router, logger))
	if err != nil {
		return err
	}
	defer stop()
	cl := blockstore.NewClient(routerBase)

	// Phase 1: the whole corpus reads complete and bit-correct through
	// the router, and the scatter-gather count agrees with ground truth.
	if err := cl.Healthz(ctx); err != nil {
		return err
	}
	metas, err := cl.Files(ctx)
	if err != nil {
		return err
	}
	if len(metas) != len(columns) {
		return fmt.Errorf("router lists %d files, wrote %d", len(metas), len(columns))
	}
	for i := range columns {
		if err := smoke.CheckColumn(ctx, cl, columns[i].Name, columns[i].Col, cl.Block); err != nil {
			return fmt.Errorf("phase 1: %s: %v", columns[i].Name, err)
		}
	}
	if err := checkScatterCount(ctx, routerBase, columns, opt); err != nil {
		return fmt.Errorf("phase 1 scatter: %v", err)
	}
	if err := checkRoutedQuery(ctx, cl, columns, opt); err != nil {
		return fmt.Errorf("phase 1 query: %v", err)
	}
	fmt.Printf("smoke phase 1: %d files scan bit-correct through the router\n", len(columns))

	// Phase 2: flip a byte on one replica and prove scans stay correct
	// while the repair loop heals the flipped copy.
	if err := smokeRepair(ctx, router, cl, nodes, columns, placed); err != nil {
		return fmt.Errorf("phase 2 (repair): %v", err)
	}
	// Check spans now, before phase 3's scan volume evicts the repair
	// span from the recorder's retention ring.
	ss, err := cl.Spans(ctx, "", 0)
	if err != nil {
		return err
	}
	if err := smoke.CheckSpanChain(ss, "router.repair", "replica.fetch"); err != nil {
		return err
	}

	// Phase 3: SIGKILL one node mid-scan; every scan still returns
	// complete, bit-correct results off the surviving replicas.
	victim := nodes[len(nodes)-1]
	if err := smokeKill(ctx, routerBase, cl, victim, columns, opt); err != nil {
		return fmt.Errorf("phase 3 (kill): %v", err)
	}

	// The router's metrics and spans must show the failover, damage, and
	// repair activity the phases above caused.
	text, err := cl.MetricsText(ctx)
	if err != nil {
		return err
	}
	if err := smoke.CheckMetrics(text,
		"btrrouted_failovers_total",
		"btrrouted_damage_detected_total",
		"btrrouted_repairs_queued_total",
		"btrrouted_repairs_succeeded_total",
		"btrrouted_query_plans_total",
		"btrrouted_query_legs_total",
	); err != nil {
		return err
	}

	// Phase 4: hedged requests against a latency-skewed replica, on a
	// second router over the two surviving nodes.
	if err := smokeHedge(ctx, specs[:2], columns, logger); err != nil {
		return fmt.Errorf("phase 4 (hedge): %v", err)
	}
	return nil
}

// checkScatterCount asks the router for a cluster-wide equality count
// (GET /v1/count-eq?value=) and verifies the merged total against local
// counting over every matching column.
func checkScatterCount(ctx context.Context, routerBase string, columns []smoke.Column, opt *btrblocks.Options) error {
	probe := ""
	for i := range columns {
		if columns[i].Col.Type == btrblocks.TypeString {
			probe = columns[i].Col.Strings.At(0)
			break
		}
	}
	if probe == "" {
		return fmt.Errorf("no string column in the corpus")
	}
	want := 0
	for i := range columns {
		if columns[i].Col.Type != btrblocks.TypeString {
			continue
		}
		n, err := btrblocks.CountEqualString(columns[i].Data, probe, opt)
		if err != nil {
			return err
		}
		want += n
	}
	body, err := smoke.HTTPGet(ctx, routerBase+"/v1/count-eq?value="+url.QueryEscape(probe))
	if err != nil {
		return fmt.Errorf("scatter count: %v", err)
	}
	var sc cluster.ScatterCount
	if err := json.Unmarshal([]byte(body), &sc); err != nil {
		return err
	}
	if sc.Partial {
		return fmt.Errorf("scatter count is partial: %+v", sc)
	}
	if sc.Count != want {
		return fmt.Errorf("scatter count %q: router %d, local %d", probe, sc.Count, want)
	}
	return nil
}

// sameTable returns indices of columns sharing one dataset prefix and
// row count — the unit a multi-column plan can range over.
func sameTable(columns []smoke.Column) []int {
	byDS := make(map[string][]int)
	best := ""
	for i := range columns {
		ds := columns[i].Name[:strings.LastIndex(columns[i].Name, "/")]
		key := ds + "\x00" + strconv.Itoa(columns[i].Col.Len())
		byDS[key] = append(byDS[key], i)
		if best == "" || len(byDS[key]) > len(byDS[best]) {
			best = key
		}
	}
	return byDS[best]
}

// checkRoutedQuery pushes a multi-column and/or plan with aggregates
// through POST /v1/query on the router and verifies the scatter-
// gathered answer bit-for-bit against one in-process executor over the
// whole table; a malformed plan must answer 400.
func checkRoutedQuery(ctx context.Context, cl *blockstore.Client, columns []smoke.Column, opt *btrblocks.Options) error {
	table := sameTable(columns)
	if len(table) < 2 {
		return fmt.Errorf("no two same-table columns in the corpus")
	}
	a, b := &columns[table[0]], &columns[table[1]]
	// The probe is a's first non-NULL value as a plan literal: integers
	// bare, doubles and strings quoted.
	v, _ := smoke.Probe(a.Col)
	probe := json.RawMessage(v)
	if a.Col.Type == btrblocks.TypeDouble || a.Col.Type == btrblocks.TypeString {
		probe, _ = json.Marshal(v)
	}
	plan := &query.Plan{
		Filter: &query.Node{Op: "and", Children: []*query.Node{
			{Op: "notnull", Column: b.Name},
			{Op: "or", Children: []*query.Node{
				{Op: "eq", Column: a.Name, Value: probe},
				{Op: "notnull", Column: a.Name},
			}},
		}},
		Aggregates: []query.AggSpec{
			{Op: "count", Column: a.Name},
			{Op: "min", Column: b.Name},
			{Op: "max", Column: b.Name},
		},
		Rows:   true,
		Return: query.ReturnBitmap,
	}
	var cols []smoke.Column
	for _, t := range table {
		cols = append(cols, columns[t])
	}
	src, err := smoke.Source(cols...)
	if err != nil {
		return err
	}
	routed, err := smoke.CheckQuery(ctx, cl, plan, src, opt)
	if err != nil {
		return err
	}
	fmt.Printf("smoke query: routed plan over %s matched %d of %d rows, aggregates agree\n",
		a.Name[:strings.LastIndex(a.Name, "/")], routed.Matched, routed.Rows)
	return nil
}

// smokeRepair flips one byte inside a middle block of a multi-block
// column on one replica's disk, reloads that node, and proves (a) the
// routed read of the damaged block is still bit-correct (failover), and
// (b) the repair loop pushes the good copy back so a direct re-scan of
// the healed node succeeds.
func smokeRepair(ctx context.Context, router *cluster.Router, cl *blockstore.Client, nodes []*smokeNode, columns []smoke.Column, placed [][]int) error {
	victim, badBlock, damaged, err := smoke.Damage(columns)
	if err != nil {
		return err
	}
	sc := &columns[victim]
	// With hedging off, FetchBlock rotates the two healthy replicas by
	// block index — flip the copy on the node the rotation makes primary
	// for badBlock, so the routed read deterministically observes the
	// damage (and enqueues the repair) before failing over.
	flipped := nodes[placed[victim][badBlock%len(placed[victim])]]
	path := filepath.Join(flipped.dir, filepath.FromSlash(sc.Name))
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		return err
	}
	if _, err := flipped.cl.Invalidate(ctx, sc.Name); err != nil {
		return fmt.Errorf("reload flipped replica: %v", err)
	}
	// The flipped node now refuses the block — prove the damage is real.
	if _, err := flipped.cl.Block(ctx, sc.Name, badBlock); !blockstore.IsBlockDamage(err) {
		return fmt.Errorf("flipped replica served block %d without damage error: %v", badBlock, err)
	}

	// The routed scan must stay complete and bit-correct: the damaged
	// leg 422s, the router enqueues the repair and fails over.
	if err := smoke.CheckColumn(ctx, cl, sc.Name, sc.Col, cl.Block); err != nil {
		return fmt.Errorf("routed scan with damaged replica: %v", err)
	}
	m := router.Metrics()
	if m.DamageDetected.Load() == 0 {
		return fmt.Errorf("router scanned past damage without detecting it")
	}

	// A routed query over the damaged column must also stay correct: the
	// leg that lands on the flipped replica 422s and fails over.
	src, err := smoke.Source(*sc)
	if err != nil {
		return err
	}
	qPlan := &query.Plan{
		Filter:     &query.Node{Op: "notnull", Column: sc.Name},
		Aggregates: []query.AggSpec{{Op: "count", Column: sc.Name}},
	}
	if _, err := smoke.CheckQuery(ctx, cl, qPlan, src, nil); err != nil {
		return fmt.Errorf("routed query with damaged replica: %v", err)
	}

	// The repair loop heals the flipped copy: poll the damaged node
	// directly until its block serves again, then re-scan it end to end.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := flipped.cl.Block(ctx, sc.Name, badBlock); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %s not healed within 15s (repairs: ok=%d failed=%d)",
				flipped.name, m.RepairsSucceeded.Load(), m.RepairsFailed.Load())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := smoke.CheckColumn(ctx, flipped.cl, sc.Name, sc.Col, flipped.cl.Block); err != nil {
		return fmt.Errorf("re-scan of healed node %s: %v", flipped.name, err)
	}
	raw, err := flipped.cl.Raw(ctx, sc.Name)
	if err != nil {
		return err
	}
	if len(raw) != len(sc.Data) {
		return fmt.Errorf("healed copy is %d bytes, want %d", len(raw), len(sc.Data))
	}
	if m.RepairsSucceeded.Load() == 0 {
		return fmt.Errorf("block healed but repairs_succeeded is zero")
	}
	fmt.Printf("smoke phase 2: block %d of %s flipped on %s, scan stayed bit-correct, replica healed (repairs=%d)\n",
		badBlock, sc.Name, flipped.name, m.RepairsSucceeded.Load())
	return nil
}

// smokeKill SIGKILLs one node while scans are in flight and proves
// every scan keeps returning complete, bit-correct results, the prober
// marks the node down, and the scatter count still agrees.
func smokeKill(ctx context.Context, routerBase string, cl *blockstore.Client, victim *smokeNode, columns []smoke.Column, opt *btrblocks.Options) error {
	var (
		scans   atomic.Int64
		scanErr error
		errOnce sync.Once
		stop    = make(chan struct{})
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range columns {
				if err := smoke.CheckColumn(ctx, cl, columns[i].Name, columns[i].Col, cl.Block); err != nil {
					errOnce.Do(func() { scanErr = fmt.Errorf("%s: %v", columns[i].Name, err) })
					return
				}
				scans.Add(1)
			}
		}
	}()

	// Kill the node once scans are demonstrably in flight.
	for scans.Load() == 0 {
		select {
		case <-done:
			close(stop)
			<-done
			return fmt.Errorf("scan loop died before the kill: %v", scanErr)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := victim.cmd.Process.Kill(); err != nil {
		return err
	}
	victim.cmd.Wait()
	killedAt := scans.Load()

	// Scans must keep completing correctly for a while after the kill.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && scans.Load() < killedAt+int64(2*len(columns)) {
		select {
		case <-done:
			close(stop)
			return fmt.Errorf("scan failed after node kill: %v", scanErr)
		case <-time.After(20 * time.Millisecond):
		}
	}
	close(stop)
	<-done
	if scanErr != nil {
		return fmt.Errorf("scan failed after node kill: %v", scanErr)
	}
	if scans.Load() < killedAt+int64(len(columns)) {
		return fmt.Errorf("only %d column scans completed after the kill", scans.Load()-killedAt)
	}

	// The prober must notice the death.
	probeDeadline := time.Now().Add(5 * time.Second)
	for {
		body, err := smoke.HTTPGet(ctx, routerBase+"/v1/nodes")
		if err != nil {
			return err
		}
		var status cluster.ClusterStatus
		if err := json.Unmarshal([]byte(body), &status); err != nil {
			return err
		}
		downSeen := false
		for _, n := range status.Nodes {
			if n.Name == victim.name && !n.Up {
				downSeen = true
			}
		}
		if downSeen {
			break
		}
		if time.Now().After(probeDeadline) {
			return fmt.Errorf("prober did not mark %s down within 5s", victim.name)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Scatter-gather still answers correctly off the survivors.
	if err := checkScatterCount(ctx, routerBase, columns, opt); err != nil {
		return err
	}
	fmt.Printf("smoke phase 3: %s SIGKILLed mid-scan, %d column scans completed bit-correct after the kill\n",
		victim.name, scans.Load()-killedAt)
	return nil
}

// smokeHedge runs a second router over two healthy nodes with a
// latency-skewed transport on the primary-leaning node and an instant
// hedge budget, and proves hedge legs fire, win, and return correct
// data — with the hedge visible in the router's metrics and spans.
func smokeHedge(ctx context.Context, specs []string, columns []smoke.Column, logger *slog.Logger) error {
	// Delay every request through this transport; the other node's
	// requests go straight through, so the hedge leg reliably wins.
	slow := &http.Client{Transport: delayTransport{d: 50 * time.Millisecond}}
	slowName, _, err := cluster.ParseNodeSpec(specs[0])
	if err != nil {
		return err
	}
	spans := obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btrrouted", Logger: logger})
	router, err := cluster.NewRouter(cluster.Config{
		Nodes:           specs,
		Replicas:        2,
		ProbeInterval:   -1, // no background churn; both nodes start up
		HedgeInitial:    time.Millisecond,
		HedgeMinSamples: 1 << 30, // pin the budget to HedgeInitial
		Log:             logger,
		Spans:           spans,
		ClientOptions: func(name string) []blockstore.ClientOption {
			if name == slowName {
				return []blockstore.ClientOption{blockstore.WithHTTPClient(slow)}
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	router.Start()
	defer router.Close()

	// Scan a column placed on both remaining nodes (R=2 over 2 nodes
	// places everything on both) through the hedging router directly.
	hedged := false
	m := router.Metrics()
	for i := range columns {
		sc := &columns[i]
		meta, err := router.FileMeta(ctx, sc.Name)
		if err != nil {
			return err
		}
		for b := 0; b < meta.Blocks; b++ {
			// Root a span per fetch so the replica.fetch children (and
			// their hedge attribute) are recorded.
			fctx, fspan := spans.StartRoot(ctx, "smoke.fetch")
			blk, err := router.FetchBlock(fctx, sc.Name, b)
			fspan.End()
			if err != nil {
				return fmt.Errorf("%s block %d: %v", sc.Name, b, err)
			}
			if blk.Rows == 0 {
				return fmt.Errorf("%s block %d: empty block", sc.Name, b)
			}
		}
		if m.Hedges.Load() > 0 && m.HedgeWins.Load() > 0 {
			hedged = true
			break
		}
	}
	if !hedged {
		return fmt.Errorf("no hedge fired and won (hedges=%d wins=%d)", m.Hedges.Load(), m.HedgeWins.Load())
	}
	// The hedge must be visible in the rendered metrics and in a span.
	var buf strings.Builder
	if _, err := m.Registry(spans).WriteTo(&buf); err != nil {
		return err
	}
	if !strings.Contains(buf.String(), "btrrouted_hedged_requests_total") ||
		!strings.Contains(buf.String(), "btrrouted_hedge_wins_total") {
		return fmt.Errorf("hedge counters missing from metrics exposition")
	}
	ss := spans.Snapshot(obs.SpanFilter{})
	if err := ss.Validate(); err != nil {
		return err
	}
	sawHedgeSpan := false
	for _, s := range ss.Spans {
		if s.Name != "replica.fetch" {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "hedge" && a.Value == "true" {
				sawHedgeSpan = true
			}
		}
	}
	if !sawHedgeSpan {
		return fmt.Errorf("no replica.fetch span with hedge=true recorded")
	}
	fmt.Printf("smoke phase 4: hedged requests fired=%d won=%d against a %s-skewed replica\n",
		m.Hedges.Load(), m.HedgeWins.Load(), "50ms")
	return nil
}

// delayTransport adds a fixed delay before every round trip.
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
