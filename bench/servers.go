package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"btrblocks"
	"btrblocks/internal/blockstore"
	"btrblocks/internal/cluster"
	"btrblocks/internal/ingest"
	"btrblocks/internal/obs"
)

// The wiring below mirrors what cmd/btrserved, cmd/btrrouted and
// cmd/btringest ship with no flags given, so the benchmark measures the
// system as deployed: 256 MiB block cache, 4 blocks of readahead on 2
// workers, span recording of every trace with the 250 ms slow threshold,
// one info-level log record per request (formatted, then dropped), R=2,
// default hedging, 64000-row chunks, 1 s flush, 5 s / 4-chunk compaction.
const (
	shippedCacheBytes = 256 << 20
	shippedPrefetch   = 4
	shippedWorkers    = 2
	shippedSpanSlow   = 250 * time.Millisecond
	shippedReplicas   = 2
	clusterNodes      = 3
)

func shippedLogger() *slog.Logger { return obs.NewLogger(io.Discard, slog.LevelInfo) }

func shippedSpans(process string) *obs.SpanRecorder {
	return obs.NewSpanRecorder(obs.SpanRecorderConfig{
		Process: process, SampleEvery: 1, SlowThreshold: shippedSpanSlow, Logger: shippedLogger(),
	})
}

func storeConfig(cacheBytes int64) blockstore.Config {
	return blockstore.Config{
		CacheBytes:      cacheBytes,
		PrefetchBlocks:  shippedPrefetch,
		PrefetchWorkers: shippedWorkers,
		Options:         &btrblocks.Options{Telemetry: btrblocks.NewTelemetry()},
	}
}

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for its accept loop to exit.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// keepAliveClient returns an HTTP client with a transport of its own
// that holds a keep-alive connection per caller; its owner closes them
// with CloseIdleConnections at teardown.
func keepAliveClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}}
}

// node is one btrserved stand-in: a store, its span recorder and its
// HTTP surface.
type node struct {
	name  string
	store *blockstore.Store
	spans *obs.SpanRecorder
	ln    *listener
}

// startNode serves contents the way btrserved does. wrap, when set,
// is the benchmark's own tracing middleware around the handler.
func startNode(name string, contents map[string][]byte, cacheBytes int64, wrap func(http.Handler) http.Handler) (*node, error) {
	store, err := blockstore.NewStore(contents, storeConfig(cacheBytes))
	if err != nil {
		return nil, err
	}
	n := &node{name: name, store: store, spans: shippedSpans("btrserved")}
	var h http.Handler = blockstore.NewServer(store, blockstore.WithLogger(shippedLogger()), blockstore.WithSpans(n.spans))
	if wrap != nil {
		h = wrap(h)
	}
	if n.ln, err = listen(h); err != nil {
		store.Close()
		return nil, err
	}
	return n, nil
}

func (n *node) close() error {
	err := n.ln.close()
	n.store.Close()
	return err
}

// damage reports block damage the store saw: none is expected, and any
// would mean latencies were measured on a failing system.
func (n *node) damage() error {
	c := n.store.Metrics().Cache()
	if c.CorruptBlocks > 0 || c.QuarantinedBlocks > 0 || len(n.store.Quarantined()) > 0 {
		return errors.New(n.name + ": store reports corrupt or quarantined blocks")
	}
	return nil
}

// routerFront is the btrrouted stand-in in front of the nodes.
type routerFront struct {
	router *cluster.Router
	spans  *obs.SpanRecorder
	ln     *listener
	hc     *http.Client // backs the router's per-node clients
}

func startRouter(nodes []*node, wrap func(http.Handler) http.Handler) (*routerFront, error) {
	specs := make([]string, len(nodes))
	for i, n := range nodes {
		specs[i] = n.name + "=" + n.ln.url
	}
	rf := &routerFront{spans: shippedSpans("btrrouted"), hc: keepAliveClient()}
	router, err := cluster.NewRouter(cluster.Config{
		Nodes:         specs,
		Replicas:      shippedReplicas,
		ProbeInterval: time.Second,
		HedgeInitial:  25 * time.Millisecond,
		HedgeMax:      250 * time.Millisecond,
		HTTPClient:    rf.hc,
		Log:           shippedLogger(),
		Spans:         rf.spans,
	})
	if err != nil {
		return nil, err
	}
	router.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	router.Membership().ProbeOnce(ctx)
	cancel()
	rf.router = router
	var h http.Handler = cluster.NewServer(router, shippedLogger())
	if wrap != nil {
		h = wrap(h)
	}
	if rf.ln, err = listen(h); err != nil {
		router.Close()
		return nil, err
	}
	return rf, nil
}

func (rf *routerFront) close() error {
	err := rf.ln.close()
	rf.router.Close()
	rf.hc.CloseIdleConnections()
	return err
}

// ingestFront is the btringest stand-in.
type ingestFront struct {
	svc *ingest.Service
	ln  *listener
}

func ingestConfig(dir string) ingest.Config {
	return ingest.Config{
		Dir:              dir,
		ChunkRows:        btrblocks.DefaultBlockSize,
		FlushInterval:    time.Second,
		CompactInterval:  5 * time.Second,
		CompactMinChunks: 4,
		Options:          &btrblocks.Options{},
		Spans:            shippedSpans("btringest"),
	}
}

func startIngest(dir string, wrap func(http.Handler) http.Handler) (*ingestFront, error) {
	svc, err := ingest.Open(ingestConfig(dir))
	if err != nil {
		return nil, err
	}
	h := ingest.NewHandler(svc)
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := listen(h)
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &ingestFront{svc: svc, ln: ln}, nil
}

func (f *ingestFront) close() error {
	err := f.ln.close()
	if cerr := f.svc.Close(); err == nil {
		err = cerr
	}
	return err
}
