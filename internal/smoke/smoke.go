// Package smoke holds the helpers the server binaries' -smoke self-tests
// share: a generated corpus and its writer, in-process and child-process
// servers, and the checks that compare what a server returns with the
// ground truth — served blocks against columns, span chains, and
// non-zero metrics.
package smoke

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"btrblocks"
	"btrblocks/internal/blockstore"
	"btrblocks/internal/obs"
	"btrblocks/internal/pbi"
	"btrblocks/internal/query"
)

// Column is one generated column: its served name, the compressed file
// bytes, and the in-memory ground truth.
type Column struct {
	Name string
	Data []byte
	Col  btrblocks.Column
}

// Exit ends a binary's -smoke run: "NAME smoke: OK" and status 0 when
// err is nil, otherwise "NAME smoke: FAIL: err" on stderr and status 1.
func Exit(name string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s smoke: FAIL: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("%s smoke: OK\n", name)
	os.Exit(0)
}

// Compress compresses every column of the datasets (e.g. a generated
// Public BI corpus), each as its own file named DATASET/COLUMN.btr.
func Compress(datasets []pbi.Dataset, opt *btrblocks.Options) ([]Column, error) {
	var out []Column
	for _, ds := range datasets {
		for _, col := range ds.Chunk.Columns {
			data, err := btrblocks.CompressColumn(col, opt)
			if err != nil {
				return nil, fmt.Errorf("compress %s/%s: %v", ds.Name, col.Name, err)
			}
			out = append(out, Column{Name: ds.Name + "/" + col.Name + ".btr", Data: data, Col: col})
		}
	}
	return out, nil
}

// WriteFile writes data to the slash-separated name under dir, creating
// the directories on the way.
func WriteFile(dir, name string, data []byte) error {
	path := filepath.Join(dir, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Serve serves h on a loopback port and returns its base URL and the
// function that stops it.
func Serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// StartChild runs self with args plus "-addr 127.0.0.1:0 -addr-file
// addrFile", waits until the child has published its address and
// answers /healthz, and returns the child and its base URL.
func StartChild(self, addrFile string, args ...string) (*exec.Cmd, string, error) {
	cmd := exec.Command(self, append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		data, err := os.ReadFile(addrFile)
		if err != nil {
			continue
		}
		base := "http://" + strings.TrimSpace(string(data))
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			return cmd, base, nil
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	return nil, "", fmt.Errorf("%s %s did not come up within 10s", filepath.Base(self), strings.Join(args, " "))
}

// HTTPGet fetches a URL and returns the body, failing on non-200.
func HTTPGet(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", url, resp.Status)
	}
	return string(body), nil
}

// CheckColumn reads every block of a served column through fetch (a
// client's Block or BlockJSON) and checks them, in order, against col.
func CheckColumn(ctx context.Context, cl *blockstore.Client, name string, col btrblocks.Column,
	fetch func(context.Context, string, int) (*blockstore.BlockValues, error)) error {
	meta, err := cl.FileMeta(ctx, name)
	if err != nil {
		return err
	}
	rows := 0
	for b := 0; b < meta.Blocks; b++ {
		blk, err := fetch(ctx, name, b)
		if err != nil {
			return fmt.Errorf("block %d: %v", b, err)
		}
		if blk.StartRow != rows {
			return fmt.Errorf("block %d starts at %d, want %d", b, blk.StartRow, rows)
		}
		if err := CheckBlock(blk, col, rows); err != nil {
			return fmt.Errorf("block %d: %v", b, err)
		}
		rows += blk.Rows
	}
	if rows != col.Len() {
		return fmt.Errorf("blocks cover %d rows, column has %d", rows, col.Len())
	}
	return nil
}

// CheckBlock checks a served block's values and NULL positions against
// rows [start, start+blk.Rows) of col.
func CheckBlock(blk *blockstore.BlockValues, col btrblocks.Column, start int) error {
	if start+blk.Rows > col.Len() {
		return fmt.Errorf("%d rows from row %d overrun the column's %d", blk.Rows, start, col.Len())
	}
	isNull := make(map[int]bool, len(blk.Nulls))
	for _, p := range blk.Nulls {
		isNull[p] = true
		if col.Nulls == nil || !col.Nulls.IsNull(start+p) {
			return fmt.Errorf("row %d served as NULL but is valid", start+p)
		}
	}
	for i := 0; i < blk.Rows; i++ {
		r := start + i
		if col.Nulls != nil && col.Nulls.IsNull(r) {
			if !isNull[i] {
				return fmt.Errorf("row %d is NULL but served as valid", r)
			}
			continue // NULL slots carry arbitrary (densified) values
		}
		switch col.Type {
		case btrblocks.TypeInt:
			if blk.Ints[i] != col.Ints[r] {
				return fmt.Errorf("row %d: got %d, want %d", r, blk.Ints[i], col.Ints[r])
			}
		case btrblocks.TypeInt64:
			if blk.Ints64[i] != col.Ints64[r] {
				return fmt.Errorf("row %d: got %d, want %d", r, blk.Ints64[i], col.Ints64[r])
			}
		case btrblocks.TypeDouble:
			if blk.Doubles[i] != col.Doubles[r] {
				return fmt.Errorf("row %d: got %v, want %v", r, blk.Doubles[i], col.Doubles[r])
			}
		case btrblocks.TypeString:
			if blk.Strings[i] != col.Strings.At(r) {
				return fmt.Errorf("row %d: got %q, want %q", r, blk.Strings[i], col.Strings.At(r))
			}
		}
	}
	return nil
}

// Damage picks the first column of at least two blocks and returns its
// index, its middle block and its bytes with one byte of that block's
// compressed stream flipped — damage the block's checksum catches.
func Damage(cols []Column) (victim, block int, damaged []byte, err error) {
	for i, c := range cols {
		ix, err := btrblocks.ParseColumnIndex(c.Data)
		if err != nil {
			return 0, 0, nil, err
		}
		if len(ix.Blocks) >= 2 {
			block = len(ix.Blocks) / 2
			damaged = append([]byte(nil), c.Data...)
			damaged[ix.Blocks[block].DataOffset()] ^= 0xFF
			return i, block, damaged, nil
		}
	}
	return 0, 0, nil, errors.New("no multi-block column in the corpus")
}

// Probe returns the first non-NULL value of col as a predicate literal
// of the wire protocol, or false when every row is NULL.
func Probe(col btrblocks.Column) (string, bool) {
	for i := 0; i < col.Len(); i++ {
		if col.Nulls != nil && col.Nulls.IsNull(i) {
			continue
		}
		switch col.Type {
		case btrblocks.TypeInt:
			return strconv.FormatInt(int64(col.Ints[i]), 10), true
		case btrblocks.TypeInt64:
			return strconv.FormatInt(col.Ints64[i], 10), true
		case btrblocks.TypeDouble:
			return strconv.FormatFloat(col.Doubles[i], 'g', -1, 64), true
		default:
			return col.Strings.At(i), true
		}
	}
	return "", false
}

// LocalCount counts the rows of a compressed column equal to a predicate
// literal the way a served count never does: it decodes the column and
// compares its non-NULL rows one by one, doubles bit-exactly. It is the
// reference a served count is checked against.
func LocalCount(data []byte, value string, opt *btrblocks.Options) (int, error) {
	col, err := btrblocks.DecompressColumn(data, opt)
	if err != nil {
		return 0, err
	}
	p, err := btrblocks.ParseEq(col.Type, value)
	n := 0
	for i := 0; err == nil && i < col.Len(); i++ {
		if p.Matches(&col, i) {
			n++
		}
	}
	return n, err
}

// Source indexes compressed columns for an in-process query executor.
func Source(cols ...Column) (query.MemSource, error) {
	src := query.MemSource{}
	for _, c := range cols {
		ix, err := btrblocks.ParseColumnIndex(c.Data)
		if err != nil {
			return nil, err
		}
		src[c.Name] = &query.Col{Index: ix, Data: c.Data}
	}
	return src, nil
}

// CheckQuery runs plan on the server behind cl and in-process over src,
// and checks the answers are identical: rows, matches, row IDs, bitmap
// and aggregates (how much work each side did may differ). It also
// checks the server answers a malformed plan with 400, never 5xx. It
// returns the served result.
func CheckQuery(ctx context.Context, cl *blockstore.Client, plan *query.Plan, src query.MemSource, opt *btrblocks.Options) (*query.Result, error) {
	served, err := cl.Query(ctx, plan)
	if err != nil {
		return nil, err
	}
	local, err := (&query.Executor{Source: src, Options: opt}).Run(ctx, plan)
	if err != nil {
		return nil, err
	}
	if served.Rows != local.Rows || served.Matched != local.Matched || !slices.Equal(served.RowIDs, local.RowIDs) ||
		!bytes.Equal(served.Bitmap, local.Bitmap) || !slices.Equal(served.Aggregates, local.Aggregates) {
		return nil, fmt.Errorf("served result diverges from the local executor: rows=%d/%d matched=%d/%d aggregates %+v vs %+v",
			served.Rows, local.Rows, served.Matched, local.Matched, served.Aggregates, local.Aggregates)
	}
	resp, err := http.Post(cl.Endpoint()+"/v1/query", "application/json", strings.NewReader(`{"filter":{"op":"between"}}`))
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		return nil, fmt.Errorf("malformed plan answered %d, want 400", resp.StatusCode)
	}
	return served, nil
}

// CheckSpanChain validates a span set and checks it holds a root span
// named root and a span named child whose parent is recorded in the set
// under the same trace.
func CheckSpanChain(ss *obs.SpanSet, root, child string) error {
	if err := ss.Validate(); err != nil {
		return err
	}
	if len(ss.Spans) == 0 {
		return errors.New("/v1/spans is empty after traffic")
	}
	byID := make(map[string]obs.SpanRecord, len(ss.Spans))
	for _, s := range ss.Spans {
		byID[s.SpanID] = s
	}
	sawRoot, sawChild := false, false
	for _, s := range ss.Spans {
		if s.Name == root && s.ParentID == "" {
			sawRoot = true
		}
		if p, ok := byID[s.ParentID]; ok && s.Name == child && p.TraceID == s.TraceID {
			sawChild = true
		}
	}
	if !sawRoot {
		return fmt.Errorf("no %s root span recorded", root)
	}
	if !sawChild {
		return fmt.Errorf("no %s span linked to a recorded parent", child)
	}
	return nil
}

// CheckMetrics checks that every named unlabeled series is present in a
// Prometheus exposition with a value above zero.
func CheckMetrics(text string, names ...string) error {
	values := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			values[f[0]] = f[1]
		}
	}
	for _, name := range names {
		if v, err := strconv.ParseFloat(values[name], 64); err != nil || v <= 0 {
			return fmt.Errorf("/metrics has %s = %q, want a value above zero", name, values[name])
		}
	}
	return nil
}
