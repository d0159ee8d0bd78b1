package ingest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// failMarkerAfterRename makes every commit marker reach the directory
// and then report the failure a directory fsync would: the marker is
// visible although the write failed.
func failMarkerAfterRename(t *testing.T) {
	t.Helper()
	writeMarker = func(path string, data []byte) error {
		if err := writeFileAtomic(path, data); err != nil {
			return err
		}
		return errors.New("directory fsync failed")
	}
	t.Cleanup(func() { writeMarker = writeFileAtomic })
}

// chunkFiles lists the markers and column files of table in dir.
func chunkFiles(t *testing.T, dir, table string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, table))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".commit") || strings.HasSuffix(e.Name(), ".btr") {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestFlushMarkerFailureKeepsRows: a flush whose marker write fails
// leaves no chunk behind, marker included, so recovery replays the
// rows from the WAL instead of trusting a marker whose files are gone.
func TestFlushMarkerFailureKeepsRows(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(quietConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for i := int64(0); i < 5; i++ {
		if _, err := svc.Append("t", testChunk(i)); err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprint(i)]++
	}
	failMarkerAfterRename(t)
	if err := svc.FlushTable("t"); err == nil {
		t.Fatal("flush succeeded with a failing marker write")
	}
	writeMarker = writeFileAtomic
	if files := chunkFiles(t, dir, "t"); len(files) != 0 {
		t.Errorf("a failed flush left %v", files)
	}
	if st := svc.Stats(); st[0].BufferedRows != 5 {
		t.Errorf("buffered rows after the failed flush = %d, want 5", st[0].BufferedRows)
	}
	svc.crash()

	svc2, err := Open(quietConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if err := svc2.FlushAll(); err != nil {
		t.Fatal(err)
	}
	diffMultiset(t, want, tableValues(t, dir, "t"))
}

// TestCompactionMarkerFailureKeepsInputs: a compaction whose marker
// write fails removes its output, marker first, so its inputs stay
// committed and recovery does not drop them as superseded.
func TestCompactionMarkerFailureKeepsInputs(t *testing.T) {
	dir := t.TempDir()
	cfg := quietConfig(dir)
	cfg.CompactMinChunks = 2
	cfg.CompactInterval = -1
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := svc.Append("t", seqIntChunk(int64(i*10), 10)); err != nil {
			t.Fatal(err)
		}
		if err := svc.FlushTable("t"); err != nil {
			t.Fatal(err)
		}
	}
	want := tableValues(t, dir, "t")
	inputs := chunkFiles(t, dir, "t")

	failMarkerAfterRename(t)
	if err := svc.CompactNow(); err == nil {
		t.Fatal("compaction succeeded with a failing marker write")
	}
	writeMarker = writeFileAtomic
	if files := chunkFiles(t, dir, "t"); strings.Join(files, " ") != strings.Join(inputs, " ") {
		t.Errorf("files after the failed compaction = %v, want the inputs %v", files, inputs)
	}
	svc.crash()

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Metrics().SupersededChunks.Load(); got != 0 {
		t.Errorf("superseded chunks = %d, want 0", got)
	}
	diffMultiset(t, want, tableValues(t, dir, "t"))
}

// TestFlushFailsTableOnUnreadableRecord: a buffered record that cannot
// be read back from the WAL fails its table. The flush is not retried,
// the table refuses appends, and other tables flush on.
func TestFlushFailsTableOnUnreadableRecord(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(quietConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.crash()
	for _, b := range []struct {
		table string
		vals  []int64
	}{{"a", []int64{1, 2}}, {"a", []int64{3}}, {"b", []int64{9}}} {
		if _, err := svc.Append(b.table, testChunk(b.vals...)); err != nil {
			t.Fatal(err)
		}
	}
	svc.mu.Lock()
	pos := svc.tables["a"].buf[1]
	svc.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(svc.wal.dir, walSegmentName(pos.seg)), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, pos.end()-1); err != nil {
		t.Fatal(err)
	}
	f.Close()

	err = svc.FlushTable("a")
	if err == nil || !strings.Contains(err.Error(), "damaged") {
		t.Fatalf("flush of a damaged record = %v, want the damage reported", err)
	}
	if again := svc.FlushTable("a"); again != err {
		t.Errorf("second flush = %v, want the table's failure %v", again, err)
	}
	if got := svc.Metrics().PublishErrors.Load(); got != 1 {
		t.Errorf("publish errors = %d, want 1: a failed table is not retried", got)
	}
	if _, aerr := svc.Append("a", testChunk(4)); aerr != err {
		t.Errorf("append to the failed table = %v, want %v", aerr, err)
	}
	if err := svc.FlushTable("b"); err != nil {
		t.Fatalf("flush of another table: %v", err)
	}
	diffMultiset(t, map[string]int{"9": 1}, tableValues(t, dir, "b"))
	if st := svc.Stats(); st[0].Table != "a" || st[0].BufferedRows != 3 {
		t.Errorf("stats = %+v, want table a holding its 3 rows", st[0])
	}
}

// TestFailedSyncHoldsRows: an append whose fsync fails is refused, but
// its rows stay buffered, as a copy, so a flush publishes them even
// though its record never reached the disk.
func TestFailedSyncHoldsRows(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(quietConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Append("t", testChunk(1)); err != nil {
		t.Fatal(err)
	}
	fsyncFile = func(*os.File) error { return errors.New("fsync failed") }
	rows := testChunk(2, 3)
	_, err = svc.Append("t", rows)
	fsyncFile = (*os.File).Sync
	if err == nil {
		t.Fatal("append succeeded with a failing fsync")
	}
	// The caller may reuse its batch once the append returns.
	rows.Columns[0].Ints64[0] = -1

	// The record's bytes never reached the disk.
	svc.mu.Lock()
	pos := svc.tables["t"].buf[1]
	svc.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(svc.wal.dir, walSegmentName(pos.seg)), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, pos.n), pos.off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := svc.FlushTable("t"); err != nil {
		t.Fatal(err)
	}
	diffMultiset(t, map[string]int{"1": 1, "2": 1, "3": 1}, tableValues(t, dir, "t"))
	svc.mu.Lock()
	held := len(svc.held)
	svc.mu.Unlock()
	if held != 0 {
		t.Errorf("%d copies still held after their rows were published", held)
	}
}

// TestFailedSyncBreaksSegment: after an fsync fails, no append and no
// sync of bytes that fsync was to cover succeeds until a checkpoint
// rotates the segment — not even for a caller that was already waiting
// on the sync mutex when it failed, and whose bytes a later fsync would
// have claimed durable.
func TestFailedSyncBreaksSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, NewMetrics(), func(*walRecord) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	defer func() { fsyncFile = (*os.File).Sync }()

	_, durable, gen, err := w.append("t", testChunk(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.syncTo(durable.end(), gen); err != nil {
		t.Fatal(err)
	}
	_, first, gen, err := w.append("t", testChunk(2))
	if err != nil {
		t.Fatal(err)
	}
	_, second, _, err := w.append("t", testChunk(3))
	if err != nil {
		t.Fatal(err)
	}

	// The first caller's fsync blocks until the second caller waits on
	// the sync mutex, then fails.
	entered, release := make(chan struct{}), make(chan struct{})
	var fsyncs atomic.Int32
	fsyncFile = func(*os.File) error {
		fsyncs.Add(1)
		close(entered)
		<-release
		return errors.New("fsync failed")
	}
	firstErr, secondErr := make(chan error, 1), make(chan error, 1)
	go func() { firstErr <- w.syncTo(first.end(), gen) }()
	<-entered
	go func() { secondErr <- w.syncTo(second.end(), gen) }()
	for !blockedInSyncTo() {
		runtime.Gosched()
	}
	close(release)
	if err := <-firstErr; err == nil {
		t.Fatal("the failing fsync's caller was acknowledged")
	}
	fsyncFile = func(*os.File) error { fsyncs.Add(1); return nil }
	if err := <-secondErr; err == nil {
		t.Fatal("a caller waiting on the failed fsync was acknowledged")
	}
	if err := w.syncTo(first.end(), gen); err == nil {
		t.Fatal("a retried sync of the failed bytes was acknowledged")
	}
	if _, _, _, err := w.append("t", testChunk(4)); err == nil || !strings.Contains(err.Error(), "fsync failure") {
		t.Fatalf("an append to the broken segment: %v, want an error naming the fsync failure", err)
	}
	if err := w.syncTo(durable.end(), gen); err != nil {
		t.Fatalf("bytes made durable before the failure: %v", err)
	}
	if n := fsyncs.Load(); n != 1 {
		t.Fatalf("%d fsyncs after the failure, want none", n-1)
	}

	// A checkpoint rotates the segment and the WAL works again.
	if err := w.checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, pos, gen, err := w.append("t", testChunk(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.syncTo(pos.end(), gen); err != nil {
		t.Fatal(err)
	}
}

// blockedInSyncTo reports whether some goroutine waits for the sync mutex
// in wal.syncTo.
func blockedInSyncTo() bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "sync.(*Mutex).Lock") && strings.Contains(g, "(*wal).syncTo") {
			return true
		}
	}
	return false
}
