package blockstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"btrblocks"
	"btrblocks/internal/obs"
	"btrblocks/internal/query"
)

// Client is the Go consumer of a blockstore Server. Zero-allocation it is
// not — it is the reference implementation of the wire protocol and the
// client the benchmark's serving workloads (bench/) drive the server with.
//
// The client is fault-tolerant by default: transport errors, truncated
// bodies and 5xx responses are retried with capped exponential backoff
// and jitter up to a per-request retry budget, while 4xx responses —
// including the damage statuses 422 (corrupt) and 410 (quarantined) —
// fail immediately, because retrying damaged bytes cannot help. Backoff
// sleeps respect the request context.
type Client struct {
	base        string
	http        *http.Client
	maxRetries  int           // retries after the first attempt
	backoffBase time.Duration // first backoff step
	backoffMax  time.Duration // cap per step
	reqTimeout  time.Duration // per-attempt deadline (0 = none)

	// Endpoint down-marking (the client-side mirror of the store's
	// block quarantine): after downThreshold consecutive transport-level
	// request failures the endpoint is marked down and every call fails
	// fast with ErrEndpointDown — no retries, no backoff sleeps — until
	// downTTL elapses, when exactly one caller gets through to re-probe.
	// Zero threshold (the default) disables the machinery.
	downThreshold int
	downTTL       time.Duration

	retries    atomic.Int64
	attempts   atomic.Int64  // individual HTTP attempts issued
	failures   atomic.Int64  // requests that exhausted their retry budget
	consecFail atomic.Int64  // consecutive failed requests (transport/5xx)
	downUntil  atomic.Int64  // unixnano the down window ends; 0 = up
	markedDown atomic.Int64  // times the endpoint was marked down
	backoffs   obs.Histogram // distribution of backoff sleeps
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient replaces the underlying *http.Client (e.g. to install a
// fault-injecting transport).
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.http = h }
}

// WithRetries sets the per-request retry budget: how many times a failed
// attempt is retried (default 3; negative disables retrying).
func WithRetries(n int) ClientOption {
	return func(c *Client) {
		if n < 0 {
			n = 0
		}
		c.maxRetries = n
	}
}

// WithBackoff sets the exponential backoff schedule: base doubles per
// retry up to max, each step jittered by up to 50%. The defaults are
// 20ms base, 1s cap.
func WithBackoff(base, max time.Duration) ClientOption {
	return func(c *Client) { c.backoffBase, c.backoffMax = base, max }
}

// WithAttemptTimeout bounds each individual attempt (the caller's
// context still bounds the whole request including backoff sleeps).
func WithAttemptTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.reqTimeout = d }
}

// WithEndpointDown enables endpoint down-marking: after threshold
// consecutive failed requests (transport errors or 5xx — responses the
// server never gave or could not give) the endpoint is marked down for
// ttl, and every call during the window fails immediately with
// ErrEndpointDown instead of burning its retry budget against a dead
// host. When the TTL expires one caller is let through as a probe;
// success clears the mark, failure re-arms the window. This reuses the
// store quarantine's TTL re-probe shape on the client side. threshold
// <= 0 disables (the default).
func WithEndpointDown(threshold int, ttl time.Duration) ClientOption {
	return func(c *Client) {
		c.downThreshold = threshold
		c.downTTL = ttl
	}
}

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8080"). It uses http.DefaultClient's transport, which
// pools connections per host.
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base:        base,
		http:        &http.Client{},
		maxRetries:  3,
		backoffBase: 20 * time.Millisecond,
		backoffMax:  time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// ClientStats reports the client's fault-handling counters. With
// several clients (one per cluster node) the Endpoint field tells the
// per-endpoint series apart.
type ClientStats struct {
	// Endpoint is the base URL this client talks to.
	Endpoint string `json:"endpoint"`
	// Retries is the total number of retried attempts.
	Retries int64 `json:"retries"`
	// Attempts is the total number of individual HTTP attempts issued
	// (first tries and retries alike).
	Attempts int64 `json:"attempts"`
	// Failures is the number of requests that failed after exhausting
	// their retry budget.
	Failures int64 `json:"failures"`
	// Down reports whether the endpoint is currently marked down.
	Down bool `json:"down"`
	// MarkedDown is how many times the endpoint transitioned to down.
	MarkedDown int64 `json:"marked_down"`
	// Backoff is the distribution of backoff sleeps.
	Backoff obs.HistogramSnapshot `json:"backoff"`
}

// Stats returns a snapshot of the client's retry behavior.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Endpoint:   c.base,
		Retries:    c.retries.Load(),
		Attempts:   c.attempts.Load(),
		Failures:   c.failures.Load(),
		Down:       c.isDown(),
		MarkedDown: c.markedDown.Load(),
		Backoff:    c.backoffs.Snapshot(),
	}
}

// Endpoint returns the base URL this client talks to.
func (c *Client) Endpoint() string { return c.base }

// ErrEndpointDown is returned without issuing a request while the
// endpoint is marked down (see WithEndpointDown).
var ErrEndpointDown = errors.New("blockstore: endpoint marked down")

// IsEndpointDown reports whether err is the client failing fast on a
// down-marked endpoint.
func IsEndpointDown(err error) bool { return errors.Is(err, ErrEndpointDown) }

// isDown reports whether the endpoint is inside a down window.
func (c *Client) isDown() bool {
	until := c.downUntil.Load()
	return until != 0 && time.Now().UnixNano() < until
}

// gateDown fails fast while the endpoint is marked down. When the down
// TTL has expired, exactly one caller wins the CAS and proceeds as the
// re-probe (the window is pushed forward so concurrent callers keep
// failing fast until the probe resolves).
func (c *Client) gateDown() error {
	if c.downThreshold <= 0 {
		return nil
	}
	until := c.downUntil.Load()
	if until == 0 {
		return nil
	}
	now := time.Now().UnixNano()
	if now >= until && c.downUntil.CompareAndSwap(until, now+int64(c.downTTL)) {
		return nil // this caller is the probe
	}
	return fmt.Errorf("%w: %s", ErrEndpointDown, c.base)
}

// noteOutcome updates the endpoint health ledger after a request (all
// retries spent). Only failures the server never answered — transport
// errors and 5xx — count toward down-marking; a 4xx means the endpoint
// is alive and well. Caller cancellation is neutral: it says nothing
// about the endpoint, and a hedging router cancels loser legs to a
// healthy-but-slower replica routinely — those must not down-mark it.
func (c *Client) noteOutcome(err error) {
	switch {
	case err == nil:
		c.consecFail.Store(0)
		c.downUntil.Store(0)
	case errors.Is(err, context.Canceled):
		// Neither success nor endpoint failure; leave the ledger as is.
	default:
		c.failures.Add(1)
		if c.downThreshold <= 0 || !retryable(err) {
			return
		}
		if c.consecFail.Add(1) >= int64(c.downThreshold) {
			if c.downUntil.Swap(time.Now().Add(c.downTTL).UnixNano()) == 0 {
				c.markedDown.Add(1)
			}
		}
	}
}

// ProbeHealth checks server liveness, bypassing the down fast-fail so
// health probes can notice recovery before the down TTL expires. A
// success clears the down mark.
func (c *Client) ProbeHealth(ctx context.Context) error {
	err := c.doGet(ctx, "/healthz", func(*http.Response) error { return nil })
	c.noteOutcome(err)
	return err
}

// HTTPError is a non-2xx response, preserved with its status code so
// callers can classify failures (e.g. 422 corrupt, 410 quarantined).
type HTTPError struct {
	Status int
	Path   string
	Msg    string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("blockstore: GET %s: %d: %s", e.Path, e.Status, e.Msg)
}

// IsBlockDamage reports whether err is the server saying a specific
// block's bytes are unusable (422 corrupt or 410 quarantined) — the
// failures a degraded scan skips rather than aborts on.
func IsBlockDamage(err error) bool {
	var he *HTTPError
	return errors.As(err, &he) &&
		(he.Status == http.StatusUnprocessableEntity || he.Status == http.StatusGone)
}

// retryable reports whether an attempt's failure may be transient:
// transport errors and 5xx responses are; 4xx responses (the request
// itself is wrong, or the data is damaged) are not. Deadline and
// cancellation errors count as transient here because they may come
// from the per-attempt WithAttemptTimeout deadline — the exact failure
// retries exist for; get() separately stops retrying once the caller's
// own context is done.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Status >= 500
	}
	if errors.Is(err, errBlockWire) {
		return false // the reply arrived whole and is malformed
	}
	return true // transport-level failure, including attempt timeouts
}

// backoffDelay returns the jittered exponential delay for retry attempt
// n (0-based).
func (c *Client) backoffDelay(n int) time.Duration {
	d := c.backoffBase << n
	if d <= 0 || d > c.backoffMax {
		d = c.backoffMax
	}
	// Up to 50% jitter decorrelates clients hammering a recovering server.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// get issues a GET and returns the whole reply body.
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	var body []byte
	err := c.fetch(ctx, path, func(resp *http.Response) (err error) {
		body, err = readBody(resp.Body)
		return err
	})
	if err != nil {
		return nil, err
	}
	return body, nil
}

// fetch issues a GET and hands the 2xx reply of each attempt to consume,
// retrying transient failures — a failed consume included, so a body cut
// off mid-read is fetched again — within the retry budget. Any other
// status fails the attempt. While the endpoint is marked down it fails
// fast without touching the network.
func (c *Client) fetch(ctx context.Context, path string, consume func(*http.Response) error) error {
	if err := c.gateDown(); err != nil {
		return err
	}
	err := c.doGet(ctx, path, consume)
	c.noteOutcome(err)
	return err
}

// doGet is the retry loop behind fetch, without the endpoint health
// bookkeeping (ProbeHealth shares it to bypass the down gate).
func (c *Client) doGet(ctx context.Context, path string, consume func(*http.Response) error) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := c.getOnce(ctx, path, consume)
		if err == nil {
			return nil
		}
		lastErr = err
		// ctx here is the caller's context: when it is done the whole
		// request is over, but an attempt that failed on its own child
		// deadline (WithAttemptTimeout) is still worth retrying.
		if attempt >= c.maxRetries || ctx.Err() != nil || !retryable(err) {
			break
		}
		delay := c.backoffDelay(attempt)
		c.retries.Add(1)
		c.backoffs.Observe(delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return lastErr
}

// getOnce is a single attempt, bounded by the per-attempt timeout.
func (c *Client) getOnce(ctx context.Context, path string, consume func(*http.Response) error) error {
	c.attempts.Add(1)
	if c.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.reqTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	// Propagate the caller's trace (W3C traceparent) and request ID so the
	// server's span joins this trace and its logs carry our request ID.
	obs.InjectTraceparent(ctx, req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := statusError(resp, path); err != nil {
		return err
	}
	return consume(resp)
}

// getJSON issues a GET through the retry loop and decodes its JSON
// reply.
func getJSON[T any](ctx context.Context, c *Client, path string) (*T, error) {
	body, err := c.get(ctx, path)
	if err != nil {
		return nil, err
	}
	return decodeReply[T](path, body)
}

// sendJSON issues one request with a body and decodes its JSON reply.
// It is not retried: the caller owns the retry policy of a mutation.
func sendJSON[T any](ctx context.Context, c *Client, method, path string, body []byte) (*T, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if method == http.MethodPost && len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	obs.InjectTraceparent(ctx, req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := readReply(resp, path)
	if err != nil {
		return nil, err
	}
	return decodeReply[T](path, reply)
}

// decodeReply decodes a JSON reply body, naming the route on failure.
func decodeReply[T any](path string, body []byte) (*T, error) {
	out := new(T)
	if err := json.Unmarshal(body, out); err != nil {
		route, _, _ := strings.Cut(path, "?")
		return nil, fmt.Errorf("blockstore: bad %s response: %v", route, err)
	}
	return out, nil
}

// maxErrorBody bounds how much of a non-2xx reply is read: only its
// first line is kept.
const maxErrorBody = 4 << 10

// statusError turns a non-2xx reply into an HTTPError carrying the first
// line of its body.
func statusError(resp *http.Response, path string) error {
	if resp.StatusCode/100 == 2 {
		return nil
	}
	// A failed read only shortens the message; the status is the error.
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	return &HTTPError{Status: resp.StatusCode, Path: path, Msg: firstLine(body)}
}

// readReply returns the body of a 2xx reply, or the reply's statusError.
func readReply(resp *http.Response, path string) ([]byte, error) {
	if err := statusError(resp, path); err != nil {
		return nil, err
	}
	return readBody(resp.Body)
}

// bodyChunk is the unit a reply body is read in.
const bodyChunk = 64 << 10

var bodyChunks = sync.Pool{New: func() any { return new([bodyChunk]byte) }}

// readBody reads a whole reply body into one slice allocated at its final
// length. JSON replies are chunked, so their length is unknown until they
// end: io.ReadAll would regrow its buffer as the body arrives, allocating
// about five times the body. The bytes are read into pooled chunks first
// and copied once. The slice is the caller's (decoded strings alias it);
// only the chunks, which nothing aliases, are reused.
func readBody(r io.Reader) ([]byte, error) {
	var chunks []*[bodyChunk]byte
	defer func() {
		for _, c := range chunks {
			bodyChunks.Put(c)
		}
	}()
	total, last := 0, bodyChunk // last: the bytes in the last chunk
	for {
		if last == bodyChunk {
			chunks = append(chunks, bodyChunks.Get().(*[bodyChunk]byte))
			last = 0
		}
		n, err := r.Read(chunks[len(chunks)-1][last:])
		total, last = total+n, last+n
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	body := make([]byte, 0, total)
	for _, c := range chunks[:len(chunks)-1] {
		body = append(body, c[:]...)
	}
	return append(body, chunks[len(chunks)-1][:last]...), nil
}

func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' {
			return string(b[:i])
		}
	}
	return string(b)
}

// Healthz checks server liveness.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.get(ctx, "/healthz")
	return err
}

// Files lists the hosted files.
func (c *Client) Files(ctx context.Context) ([]FileMeta, error) {
	out, err := getJSON[[]FileMeta](ctx, c, "/v1/files")
	if err != nil {
		return nil, err
	}
	return *out, nil
}

// FileMeta fetches metadata for one file.
func (c *Client) FileMeta(ctx context.Context, name string) (*FileMeta, error) {
	out, err := getJSON[[]FileMeta](ctx, c, "/v1/files?file="+url.QueryEscape(name))
	if err != nil {
		return nil, err
	}
	if len(*out) != 1 {
		return nil, fmt.Errorf("blockstore: bad /v1/files response for %s", name)
	}
	return &(*out)[0], nil
}

// Raw fetches a file's raw compressed bytes.
func (c *Client) Raw(ctx context.Context, name string) ([]byte, error) {
	return c.get(ctx, "/v1/raw/"+rawPath(name))
}

// RawRange fetches length bytes starting at off, via an HTTP Range
// request — the S3-style access path.
func (c *Client) RawRange(ctx context.Context, name string, off, length int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/raw/"+rawPath(name), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+length-1))
	obs.InjectTraceparent(ctx, req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		return nil, fmt.Errorf("blockstore: range GET %s: %s", name, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// rawPath escapes a store-relative name for use under /v1/raw/ while
// keeping its slashes as path separators.
func rawPath(name string) string {
	return (&url.URL{Path: name}).EscapedPath()
}

// blockPath is the binary block route.
func blockPath(name string, idx int) string {
	return "/v1/block?format=binary&file=" + url.QueryEscape(name) + "&block=" + strconv.Itoa(idx)
}

// frameBody returns a binary block reply's body and length. A server
// that predates Content-Length on these replies sends them chunked; only
// then is the body read whole first to learn the frame's length.
func frameBody(resp *http.Response) (io.Reader, int64, error) {
	if resp.ContentLength >= 0 {
		return resp.Body, resp.ContentLength, nil
	}
	frame, err := readBody(resp.Body)
	return bytes.NewReader(frame), int64(len(frame)), err
}

// Block fetches one decompressed block in the binary wire format,
// reading the reply straight into the returned slices.
func (c *Client) Block(ctx context.Context, name string, idx int) (*BlockValues, error) {
	var blk *BlockValues
	err := c.fetch(ctx, blockPath(name, idx), func(resp *http.Response) error {
		body, n, err := frameBody(resp)
		if err != nil {
			return err
		}
		blk, err = readBlockFrame(name, body, n, hostLittleEndian)
		return err
	})
	if err != nil {
		return nil, err
	}
	blk.Block = idx
	return blk, nil
}

// BlockFrame fetches one decompressed block as its validated BTBK frame,
// undecoded: what a router passes through to its own caller.
func (c *Client) BlockFrame(ctx context.Context, name string, idx int) ([]byte, error) {
	var frame []byte
	err := c.fetch(ctx, blockPath(name, idx), func(resp *http.Response) error {
		body, n, err := frameBody(resp)
		if err != nil {
			return err
		}
		frame, err = readFrame(body, n)
		return err
	})
	if err != nil {
		return nil, err
	}
	return frame, nil
}

// BlockJSON fetches one decompressed block in the JSON wire format and
// parses the reply in one pass into the returned values.
func (c *Client) BlockJSON(ctx context.Context, name string, idx int) (*BlockValues, error) {
	var blk *BlockValues
	err := c.fetch(ctx, "/v1/block?format=json&file="+url.QueryEscape(name)+"&block="+strconv.Itoa(idx), func(resp *http.Response) error {
		body, err := readBody(resp.Body)
		if err != nil {
			return err
		}
		blk, err = decodeBlockJSON(body)
		return err
	})
	if err != nil {
		return nil, err
	}
	return blk, nil
}

// Trace fetches the cascade decision trace of one block (or the whole
// column when block < 0).
func (c *Client) Trace(ctx context.Context, name string, block int) (*btrblocks.DecisionTrace, error) {
	path := "/v1/trace/" + rawPath(name)
	if block >= 0 {
		path += "?block=" + strconv.Itoa(block)
	}
	return getJSON[btrblocks.DecisionTrace](ctx, c, path)
}

// Spans fetches the server's retained spans, optionally filtered by
// trace ID and minimum duration (zero values disable each filter).
func (c *Client) Spans(ctx context.Context, traceID string, minDur time.Duration) (*obs.SpanSet, error) {
	path := "/v1/spans"
	q := url.Values{}
	if traceID != "" {
		q.Set("trace", traceID)
	}
	if minDur > 0 {
		q.Set("min_dur", minDur.String())
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	return getJSON[obs.SpanSet](ctx, c, path)
}

// Invalidate tells the server to drop cached state for a file and
// reload it from its backing directory — called by writers (btringest)
// after atomically replacing a served file. Not retried: invalidation
// is idempotent but the caller decides whether a failure matters.
func (c *Client) Invalidate(ctx context.Context, name string) (*InvalidateResult, error) {
	return sendJSON[InvalidateResult](ctx, c, http.MethodPost, "/v1/invalidate/"+rawPath(name), nil)
}

// Repair pushes a verified replacement copy of a file to the server
// via PUT /v1/repair/NAME — the cross-replica healing path: a router
// that fetched good bytes from one replica re-pushes them to a replica
// whose copy failed its CRC. The server re-verifies before accepting,
// so a damaged payload cannot displace a good copy. Not retried: the
// repair loop owns scheduling and backoff.
func (c *Client) Repair(ctx context.Context, name string, data []byte) (*RepairResult, error) {
	c.attempts.Add(1)
	return sendJSON[RepairResult](ctx, c, http.MethodPut, "/v1/repair/"+rawPath(name), data)
}

// Query executes a JSON query plan via POST /v1/query. Not retried: a
// 400 means the plan is wrong, and scatter layers (btrrouted) own their
// failover policy across replicas.
func (c *Client) Query(ctx context.Context, p *query.Plan) (*query.Result, error) {
	payload, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("blockstore: encoding plan: %v", err)
	}
	c.attempts.Add(1)
	return sendJSON[query.Result](ctx, c, http.MethodPost, "/v1/query", payload)
}

// MetricsText fetches the raw Prometheus exposition.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	body, err := c.get(ctx, "/metrics")
	return string(body), err
}

// ScanResult is the outcome of a column scan that degrades gracefully:
// damaged blocks are skipped and reported instead of aborting the scan.
type ScanResult struct {
	// Rows and Bytes sum over the healthy blocks received.
	Rows  int
	Bytes int64
	// Blocks is the number of healthy blocks received.
	Blocks int
	// FailedBlocks lists the indices the server refused as damaged (422
	// corrupt or 410 quarantined), in ascending order.
	FailedBlocks []int
	// Partial reports whether any block was lost: the row total covers
	// only part of the column.
	Partial bool
}

// ScanColumn fetches every block of a served column with the given number
// of concurrent workers (<= 0 means 1) and returns the total rows and
// decompressed bytes received. Blocks travel in the binary wire format;
// the first error — including block damage — fails the scan. Use
// ScanColumnPartial to skip damaged blocks instead.
func (c *Client) ScanColumn(ctx context.Context, name string, workers int) (rows int, bytes int64, err error) {
	res, err := c.scanColumn(ctx, name, workers, false)
	if err != nil {
		return 0, 0, err
	}
	return res.Rows, res.Bytes, nil
}

// ScanColumnPartial fetches every block of a served column, skipping
// blocks the server reports as damaged (corrupt or quarantined) and
// marking the result partial — graceful degradation for scans over
// columns with localized damage. Any other failure aborts the scan.
func (c *Client) ScanColumnPartial(ctx context.Context, name string, workers int) (*ScanResult, error) {
	return c.scanColumn(ctx, name, workers, true)
}

func (c *Client) scanColumn(ctx context.Context, name string, workers int, skipDamage bool) (*ScanResult, error) {
	meta, err := c.FileMeta(ctx, name)
	if err != nil {
		return nil, err
	}
	if meta.Blocks == 0 {
		return nil, fmt.Errorf("blockstore: %s has no addressable blocks", name)
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > meta.Blocks {
		workers = meta.Blocks
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		gotRows  atomic.Int64
		gotBytes atomic.Int64
		gotBlks  atomic.Int64
		failedMu sync.Mutex
		failed   []int
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= meta.Blocks || ctx.Err() != nil {
					return
				}
				blk, err := c.Block(ctx, name, idx)
				if err != nil {
					if skipDamage && IsBlockDamage(err) {
						failedMu.Lock()
						failed = append(failed, idx)
						failedMu.Unlock()
						continue
					}
					errOnce.Do(func() { firstErr = err; cancel() })
					return
				}
				gotRows.Add(int64(blk.Rows))
				gotBytes.Add(int64(blk.UncompressedBytes()))
				gotBlks.Add(1)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	sort.Ints(failed)
	return &ScanResult{
		Rows:         int(gotRows.Load()),
		Bytes:        gotBytes.Load(),
		Blocks:       int(gotBlks.Load()),
		FailedBlocks: failed,
		Partial:      len(failed) > 0,
	}, nil
}
