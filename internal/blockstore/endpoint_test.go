package blockstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"btrblocks"
)

// After threshold consecutive transport/5xx failures the client marks
// the endpoint down and fails fast without touching the wire; after the
// TTL exactly one request probes through, and a success clears the mark.
func TestClientEndpointDownMarking(t *testing.T) {
	var hits atomic.Int64
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	cl := NewClient(srv.URL,
		WithRetries(0),
		WithEndpointDown(2, 150*time.Millisecond),
	)
	ctx := context.Background()

	// Two consecutive 5xx failures trip the mark.
	for i := 0; i < 2; i++ {
		if err := cl.Healthz(ctx); err == nil {
			t.Fatal("expected failure from 500ing server")
		}
	}
	st := cl.Stats()
	if !st.Down || st.MarkedDown != 1 {
		t.Fatalf("stats after threshold failures: %+v", st)
	}

	// Down window: requests fail fast with ErrEndpointDown, no wire hit.
	wireBefore := hits.Load()
	err := cl.Healthz(ctx)
	if !IsEndpointDown(err) {
		t.Fatalf("expected ErrEndpointDown, got %v", err)
	}
	if hits.Load() != wireBefore {
		t.Fatal("down-marked client still hit the wire")
	}

	// After the TTL one request probes through; the server is healthy
	// again, so the mark clears and traffic flows.
	healthy.Store(true)
	time.Sleep(160 * time.Millisecond)
	if err := cl.Healthz(ctx); err != nil {
		t.Fatalf("probe after TTL: %v", err)
	}
	if st := cl.Stats(); st.Down {
		t.Fatalf("endpoint still marked down after successful probe: %+v", st)
	}
	if err := cl.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
}

// ProbeHealth bypasses the down gate so a health prober can observe
// recovery before the TTL expires.
func TestClientProbeHealthBypassesDownGate(t *testing.T) {
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	cl := NewClient(srv.URL, WithRetries(0), WithEndpointDown(1, time.Hour))
	ctx := context.Background()
	if err := cl.Healthz(ctx); err == nil {
		t.Fatal("expected failure")
	}
	if !cl.Stats().Down {
		t.Fatal("endpoint not marked down")
	}
	healthy.Store(true)
	// The hour-long TTL has not expired, but the probe goes through and
	// clears the mark.
	if err := cl.ProbeHealth(ctx); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().Down {
		t.Fatal("successful probe did not clear the down mark")
	}
	if err := cl.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
}

// Caller cancellation must not count toward down-marking: a hedging
// router cancels loser legs to healthy replicas routinely.
func TestClientCancellationDoesNotMarkDown(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	defer close(release)

	cl := NewClient(srv.URL, WithRetries(0), WithEndpointDown(1, time.Hour))
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		if err := cl.Healthz(ctx); err == nil {
			t.Fatal("expected cancellation error")
		}
		cancel()
	}
	if st := cl.Stats(); st.Down {
		t.Fatalf("cancelled requests marked the endpoint down: %+v", st)
	}
}

// The client's attempt/failure counters move with traffic.
func TestClientStatsCounters(t *testing.T) {
	var fail atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	cl := NewClient(srv.URL, WithRetries(1), WithBackoff(time.Millisecond, 2*time.Millisecond))
	ctx := context.Background()
	if err := cl.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	if err := cl.Healthz(ctx); err == nil {
		t.Fatal("expected failure")
	}
	st := cl.Stats()
	if st.Endpoint != srv.URL {
		t.Fatalf("stats endpoint %q, want %q", st.Endpoint, srv.URL)
	}
	// 1 success + (1 attempt + 1 retry) for the failure.
	if st.Attempts != 3 {
		t.Fatalf("attempts %d, want 3", st.Attempts)
	}
	if st.Failures != 1 {
		t.Fatalf("failures %d, want 1", st.Failures)
	}
	if st.Retries != 1 {
		t.Fatalf("retries %d, want 1", st.Retries)
	}
}

// PUT /v1/repair installs a verified good copy over a damaged one and
// clears the quarantine; a garbage payload is refused with 422 and the
// store keeps serving what it had.
func TestRepairEndpointAcceptAndReject(t *testing.T) {
	contents, cols := testCorpus(t)
	const name = "t/i.btr"
	good := contents[name]

	// Start the store with a damaged copy of one file.
	ix, err := btrblocks.ParseColumnIndex(good)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[ix.Blocks[1].DataOffset()] ^= 0xFF
	damaged := make(map[string][]byte, len(contents))
	for k, v := range contents {
		damaged[k] = v
	}
	damaged[name] = bad

	store, err := NewStore(damaged, Config{QuarantineThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv := httptest.NewServer(NewServer(store))
	t.Cleanup(srv.Close)
	cl := NewClient(srv.URL)
	ctx := context.Background()

	if _, err := cl.Block(ctx, name, 1); !IsBlockDamage(err) {
		t.Fatalf("damaged store served block 1: %v", err)
	}

	// A garbage payload is refused and nothing changes.
	if _, err := cl.Repair(ctx, name, []byte("not a container")); err == nil {
		t.Fatal("garbage repair payload accepted")
	} else if !IsBlockDamage(err) {
		t.Fatalf("garbage repair: expected 422, got %v", err)
	}
	// A payload that is a container but fails deep verification is also
	// refused.
	if _, err := cl.Repair(ctx, name, bad); err == nil {
		t.Fatal("damaged repair payload accepted")
	}
	if _, err := cl.Block(ctx, name, 1); !IsBlockDamage(err) {
		t.Fatalf("rejected repairs changed the store: %v", err)
	}

	// The good copy installs, heals the block, and clears quarantine.
	res, err := cl.Repair(ctx, name, good)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "accepted" || res.Bytes != len(good) {
		t.Fatalf("repair result %+v", res)
	}
	col := cols[name]
	meta, err := cl.FileMeta(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for b := 0; b < meta.Blocks; b++ {
		blk, err := cl.Block(ctx, name, b)
		if err != nil {
			t.Fatalf("block %d after repair: %v", b, err)
		}
		rows += blk.Rows
	}
	if rows != col.Len() {
		t.Fatalf("repaired file covers %d rows, want %d", rows, col.Len())
	}
	raw, err := cl.Raw(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(good) {
		t.Fatal("repaired bytes differ from the pushed copy")
	}
}

// A stream whose schema names column type 200, with its checksum
// refreshed so only the schema is wrong, is refused with 422: deep
// verification reads streams with the same scanner as the Reader, which
// rejects the type.
func TestRepairRejectsStreamWithUnknownSchemaType(t *testing.T) {
	var buf bytes.Buffer
	w, err := btrblocks.NewWriter(&buf, []btrblocks.Column{{Name: "i", Type: btrblocks.TypeInt}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk(&btrblocks.Chunk{Columns: []btrblocks.Column{btrblocks.IntColumn("i", []int32{1, 2, 3})}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[7] = 200 // the first schema entry's type, after magic, version and column count
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))

	contents, _ := testCorpus(t)
	store, err := NewStore(contents, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv := httptest.NewServer(NewServer(store))
	t.Cleanup(srv.Close)
	before := store.Metrics().RepairsRejected.Load()
	_, err = NewClient(srv.URL, WithRetries(0)).Repair(context.Background(), "t/stream.btrs", data)
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusUnprocessableEntity {
		t.Fatalf("repair with schema type 200: err = %v, want 422", err)
	}
	if got := store.Metrics().RepairsRejected.Load() - before; got != 1 {
		t.Fatalf("RepairsRejected went up by %d, want 1", got)
	}
}
