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
// -smoke is the node-kill gate, the one check here that needs real
// processes: it generates a corpus, places it over three child node
// processes with R=2, reads every file through the router in a loop,
// SIGKILLs a node mid-scan, and proves every scan still returns
// complete, bit-correct results off the survivors, the prober marks
// the node down, a routed /v1/query count per string column still
// agrees and /metrics shows the failover. It exits non-zero on any
// miss. Routed queries, repair and hedging run in one process and are
// checked by internal/cluster's tests.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
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
		smokeTest = flag.Bool("smoke", false, "self-test: 3 child nodes, one SIGKILLed mid-scan, every scan stays bit-correct")

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
// Smoke: the node-kill gate.

// smokeNode is one child node process of the smoke cluster.
type smokeNode struct {
	name string
	cmd  *exec.Cmd
	base string
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
	for _, c := range columns {
		for _, ni := range ring.Place(c.Name, replicas) {
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
		cmd, base, err := smoke.StartChild(self, filepath.Join(work, name+".addr"),
			"-node-dir", filepath.Join(work, name), "-log-level", "warn")
		if err != nil {
			return err
		}
		nodes[i] = &smokeNode{name: name, cmd: cmd, base: base}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// The router under test, as shipped but for health probes every
	// 100ms and a short down-TTL, so the kill converges fast.
	specs := make([]string, len(nodes))
	for i, n := range nodes {
		specs[i] = n.name + "=" + n.base
	}
	logger := obs.NewLogger(os.Stderr, slog.LevelWarn)
	router, err := cluster.NewRouter(cluster.Config{
		Nodes:         specs,
		Replicas:      replicas,
		ProbeInterval: 100 * time.Millisecond,
		DownTTL:       500 * time.Millisecond,
		Log:           logger,
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
	if err := cl.Healthz(ctx); err != nil {
		return err
	}

	// SIGKILL one node mid-scan; every scan still returns complete,
	// bit-correct results off the surviving replicas.
	victim := nodes[len(nodes)-1]
	if err := smokeKill(ctx, routerBase, cl, victim, columns, opt); err != nil {
		return fmt.Errorf("node kill: %v", err)
	}
	text, err := cl.MetricsText(ctx)
	if err != nil {
		return err
	}
	return smoke.CheckMetrics(text, "btrrouted_failovers_total")
}

// checkRoutedCount counts one string literal in every string column
// through the router (POST /v1/query, a plan with one eq leaf per
// column) and checks each count against a decode-and-compare count.
func checkRoutedCount(ctx context.Context, cl *blockstore.Client, columns []smoke.Column, opt *btrblocks.Options) error {
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
	lit, err := json.Marshal(probe)
	if err != nil {
		return err
	}
	for i := range columns {
		if columns[i].Col.Type != btrblocks.TypeString {
			continue
		}
		want, err := smoke.LocalCount(columns[i].Data, btrblocks.StringEq(probe), opt)
		if err != nil {
			return err
		}
		res, err := cl.Query(ctx, &query.Plan{Filter: &query.Node{Op: "eq", Column: columns[i].Name, Value: lit}})
		if err != nil {
			return fmt.Errorf("routed count of %s: %v", columns[i].Name, err)
		}
		if res.Matched != int64(want) {
			return fmt.Errorf("routed count of %s = %q: router %d, local %d", columns[i].Name, probe, res.Matched, want)
		}
	}
	return nil
}

// smokeKill SIGKILLs one node while scans are in flight and proves
// every scan keeps returning complete, bit-correct results, the prober
// marks the node down, and routed counts still agree.
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

	// Routed queries still answer correctly off the survivors.
	if err := checkRoutedCount(ctx, cl, columns, opt); err != nil {
		return err
	}
	fmt.Printf("smoke: %s SIGKILLed mid-scan, %d column scans completed bit-correct after the kill\n",
		victim.name, scans.Load()-killedAt)
	return nil
}
