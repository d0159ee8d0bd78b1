package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"btrblocks"
	"btrblocks/internal/blockstore"
	"btrblocks/internal/ingest"
	"btrblocks/internal/tpch"
)

// scratchRoot is where ingest store directories are made. The driver
// lets a run write only inside its checkout, so this is not the system
// temp dir; tests point it at t.TempDir().
var scratchRoot = ".bench_build/tmp"

const (
	batchRows  = 500
	keyColumn  = "l_orderkey" // summed on both sides to prove no acked row was lost or changed
	ingestPath = "/v1/append"
)

// nTables is how many tables the batches are spread over, round robin.
// Four, not ISSUE 11's two: at ~125000 appended rows a second two tables
// fill a 64000-row chunk about once a second each, which beats against the
// 1 s flush timer — the number of chunks published in 10 s then ran from
// 61 to 99 and op_p50_ms from 5.7 to 8.2 ms between runs of one commit.
// With four tables every flush is the timer's, chunks are half blocks, and
// compaction has the same work every cycle.
const nTables = 4

var ingestTables = func() (names [nTables]string) {
	for i := range names {
		names[i] = "lineitem_" + string(rune('a'+i))
	}
	return names
}()

// batch is one pre-rendered append: the JSON a batch writer posts, the
// same rows as a chunk for the in-process replay, and what it adds to
// the totals checked after the drain.
type batch struct {
	body   []byte
	chunk  btrblocks.Chunk
	bytes  int
	keySum int64
}

// ingestInst is the write-path workload: 500-row lineitem batches
// posted to two tables of one btringest stand-in with real fsync, the
// flush and compaction timers left on so background cascade compression
// competes with the ack path for the same cores.
type ingestInst struct {
	dir   string
	front *ingestFront
	hc    *http.Client
	pool  [nTables][]batch

	ackedBytes    atomic.Int64
	ackedKeys     [nTables]atomic.Int64
	ackedPerTable [nTables]atomic.Int64
}

func setupIngest(seed int64, sc scale, t *tracer) (_ *ingestInst, err error) {
	in := &ingestInst{}
	// Two tables get different rows; both are lineitem-shaped.
	for tb := range ingestTables {
		per := sc.poolBatches / nTables
		li := tpch.Lineitem(per*batchRows, seed+int64(tb))
		for b := 0; b < per; b++ {
			in.pool[tb] = append(in.pool[tb], renderBatch(ingestTables[tb], &li, b*batchRows, (b+1)*batchRows))
		}
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	if in.dir, err = os.MkdirTemp(scratchRoot, "ingest-*"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	var wrap func(http.Handler) http.Handler
	if t != nil {
		wrap = t.wrap("ingest")
	}
	if in.front, err = startIngest(in.dir, wrap); err != nil {
		return nil, err
	}
	in.hc = keepAliveClient()
	// Tables are created explicitly, as a deployment would: inference
	// from the first batch would make lineitem's int32 keys int64.
	for tb, name := range ingestTables {
		if err := in.front.svc.CreateTable(name, tableSpecs(&in.pool[tb][0].chunk)); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func tableSpecs(chunk *btrblocks.Chunk) []ingest.ColumnSpec {
	specs := make([]ingest.ColumnSpec, len(chunk.Columns))
	for i, c := range chunk.Columns {
		specs[i] = ingest.ColumnSpec{Name: c.Name, Type: ingestType(c.Type)}
	}
	return specs
}

func ingestType(t btrblocks.Type) string {
	switch t {
	case btrblocks.TypeInt:
		return "int"
	case btrblocks.TypeInt64:
		return "int64"
	case btrblocks.TypeDouble:
		return "double"
	default:
		return "string"
	}
}

// renderBatch cuts rows [lo,hi) of a generated table into one append.
func renderBatch(table string, src *btrblocks.Chunk, lo, hi int) batch {
	b := batch{chunk: btrblocks.Chunk{Columns: make([]btrblocks.Column, len(src.Columns))}}
	for i := range src.Columns {
		s, d := &src.Columns[i], &b.chunk.Columns[i]
		d.Name, d.Type = s.Name, s.Type
		switch s.Type {
		case btrblocks.TypeInt:
			d.Ints = s.Ints[lo:hi:hi]
		case btrblocks.TypeInt64:
			d.Ints64 = s.Ints64[lo:hi:hi]
		case btrblocks.TypeDouble:
			d.Doubles = s.Doubles[lo:hi:hi]
		default:
			for r := lo; r < hi; r++ {
				d.Strings = d.Strings.AppendBytes(s.Strings.View(r))
			}
		}
		if s.Name == keyColumn {
			for _, k := range d.Ints {
				b.keySum += int64(k)
			}
		}
	}
	b.bytes = b.chunk.UncompressedBytes()

	var buf bytes.Buffer
	buf.WriteString(`{"table":"` + table + `","rows":[`)
	for r := 0; r < hi-lo; r++ {
		if r > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('{')
		for i := range b.chunk.Columns {
			c := &b.chunk.Columns[i]
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(`"` + c.Name + `":`)
			switch c.Type {
			case btrblocks.TypeInt:
				buf.WriteString(strconv.FormatInt(int64(c.Ints[r]), 10))
			case btrblocks.TypeInt64:
				buf.WriteString(strconv.FormatInt(c.Ints64[r], 10))
			case btrblocks.TypeDouble:
				buf.WriteString(strconv.FormatFloat(c.Doubles[r], 'g', -1, 64))
			default:
				s, _ := json.Marshal(c.Strings.At(r)) // a Go string always marshals
				buf.Write(s)
			}
		}
		buf.WriteByte('}')
	}
	buf.WriteString("]}")
	b.body = buf.Bytes()
	return b
}

func (in *ingestInst) op(i uint64) (table int, b *batch) {
	table = int(i % nTables)
	return table, &in.pool[table][(i/nTables)%uint64(len(in.pool[table]))]
}

func (in *ingestInst) do(ctx context.Context, i uint64) outcome {
	tb, b := in.op(i)
	out := outcome{bytes: b.bytes}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, in.front.ln.url+ingestPath, bytes.NewReader(b.body))
	if err != nil {
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := in.hc.Do(req)
	if err != nil {
		return out
	}
	var ack struct {
		Rows int `json:"rows"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode/100 != 2 || ack.Rows != batchRows {
		return out
	}
	in.ackedBytes.Add(int64(b.bytes))
	in.ackedKeys[tb].Add(b.keySum)
	in.ackedPerTable[tb].Add(batchRows)
	out.ok = true
	return out
}

func (in *ingestInst) describe(i uint64) string {
	tb, _ := in.op(i)
	return "append " + ingestTables[tb] + " batch " + strconv.FormatUint((i/nTables)%uint64(len(in.pool[tb])), 10)
}

// finish drains the service (FlushAll, then CompactNow), stops it,
// reopens the directory the way btrserved would and checks that every
// acked row is there: row count and key sum per table. The numbers that
// exist only after the drain come back as late values.
func (in *ingestInst) finish(context.Context) (float64, values, error) {
	svc := in.front.svc
	m := svc.Metrics()
	if m.PublishErrors.Load() > 0 || m.AppendErrors.Load() > 0 {
		return 0, nil, fmt.Errorf("ingest: %d publish errors, %d append errors in the background",
			m.PublishErrors.Load(), m.AppendErrors.Load())
	}
	user := float64(in.ackedBytes.Load())
	t0 := time.Now()
	if err := svc.FlushAll(); err != nil {
		return 0, nil, err
	}
	var precompact int64
	for _, st := range svc.Stats() {
		precompact += st.PublishedBytes
	}
	if err := svc.CompactNow(); err != nil {
		return 0, nil, err
	}
	drain := time.Since(t0)
	if err := in.front.close(); err != nil {
		return 0, nil, err
	}
	in.front = nil

	store, err := blockstore.Open(in.dir, blockstore.Config{})
	if err != nil {
		return 0, nil, err
	}
	defer store.Close()
	var rows, keys [nTables]int64
	var stored int64
	for _, f := range store.Files() {
		if f.Kind != "column" || !strings.HasSuffix(f.Name, ".btr") {
			continue
		}
		stored += int64(len(f.Data))
		if !strings.HasSuffix(f.Name, "."+keyColumn+".btr") {
			continue
		}
		dir, _, _ := strings.Cut(f.Name, "/")
		tb := slices.Index(ingestTables[:], dir)
		if tb < 0 {
			return 0, nil, fmt.Errorf("reopen: %s belongs to no table", f.Name)
		}
		col, err := btrblocks.DecompressColumn(f.Data, nil)
		if err != nil {
			return 0, nil, fmt.Errorf("reopen %s: %w", f.Name, err)
		}
		rows[tb] += int64(col.Len())
		for _, k := range col.Ints {
			keys[tb] += int64(k)
		}
	}
	for tb := range ingestTables {
		if rows[tb] != in.ackedPerTable[tb].Load() || keys[tb] != in.ackedKeys[tb].Load() {
			return 0, nil, fmt.Errorf("ingest: table %s holds %d rows (key sum %d) after reopen, acked %d (key sum %d)",
				ingestTables[tb], rows[tb], keys[tb], in.ackedPerTable[tb].Load(), in.ackedKeys[tb].Load())
		}
	}
	if stored == 0 || precompact == 0 {
		return 0, nil, errors.New("ingest: nothing was published")
	}

	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	late := values{
		"ingest.wal_sync_p50_ms":         ms(m.WALSyncLatency.Quantile(0.5)),
		"ingest.flush_p50_ms":            ms(m.FlushLatency.Quantile(0.5)),
		"ingest.flushes":                 float64(m.Flushes.Load()),
		"ingest.compactions":             float64(m.Compactions.Load()),
		"ingest.compact_total_s":         m.CompactLatency.Sum().Seconds(),
		"ingest.drain_s":                 drain.Seconds(),
		"ingest.stored_ratio_precompact": user / float64(precompact),
		"ingest.write_amp":               float64(m.WALBytes.Load()+m.PublishedBytes.Load()+m.CompactionBytesAfter.Load()) / user,
	}
	return user / float64(stored), late, nil
}

func (in *ingestInst) close() {
	if in.hc != nil {
		in.hc.CloseIdleConnections()
	}
	if in.front != nil {
		_ = in.front.close() // teardown of an instance whose results are already taken
	}
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

func (in *ingestInst) spanName(uint64) string { return "append" }

// replay hands every traced batch, in order, straight to
// Service.AppendContext of a twin service (own directory, same
// configuration), which separates the handler's JSON and routing cost
// from the WAL path below it.
func (in *ingestInst) replay(ctx context.Context, t *tracer, ids []uint64, _ []int64, _ scale) (values, error) {
	v := values{}
	m := in.front.svc.Metrics()
	if appends, user := m.Appends.Load(), in.ackedBytes.Load(); appends > 0 && user > 0 {
		v["ingest.wal_syncs_per_append"] = float64(m.WALSyncs.Load()) / float64(appends)
		v["ingest.wal_bytes_per_user_byte"] = float64(m.WALBytes.Load()) / float64(user)
	}

	twinDir, err := os.MkdirTemp(scratchRoot, "ingest-twin-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(twinDir)
	twin, err := ingest.Open(ingestConfig(twinDir))
	if err != nil {
		return nil, err
	}
	defer twin.Close()
	for tb, name := range ingestTables {
		if err := twin.CreateTable(name, tableSpecs(&in.pool[tb][0].chunk)); err != nil {
			return nil, err
		}
	}
	for i, id := range ids {
		tb, b := in.op(uint64(i))
		r0 := time.Now()
		if _, err := twin.AppendContext(ctx, ingestTables[tb], &b.chunk); err != nil {
			return nil, err
		}
		t.addUnder(id, "ingest", "ingest", "replay Service.AppendContext", r0, time.Now())
	}
	return v, nil
}
