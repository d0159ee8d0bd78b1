package ingest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"btrblocks"
)

// The compactor turns accumulations of small level-0 chunks into full
// target-size blocks. BtrBlocks picks schemes by sampling a whole block,
// so a 500-row flush compresses into one 500-row block whose cascade
// never sees enough data to win; merging eight of them into a 64k-value
// block restores the ratio the format was designed for.
//
// Crash safety mirrors publication: the merged chunk commits (marker
// last) before any input is removed, and its marker records the
// [MinSeq, Seq] range it covers — recovery deletes any committed
// level-0 chunk inside a compacted chunk's range, so a crash between
// output-commit and input-removal never doubles rows.

// compactorLoop periodically compacts every table until no candidate
// run remains.
func (s *Service) compactorLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.compactInterval())
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.CompactNow(); err != nil {
				s.log.Error("compact", "err", err.Error())
			}
		}
	}
}

// CompactNow compacts every table until no candidate run remains.
func (s *Service) CompactNow() error {
	s.mu.Lock()
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	var firstErr error
	for _, name := range names {
		for {
			did, err := s.CompactTable(name)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				break
			}
			if !did {
				break
			}
		}
	}
	return firstErr
}

// CompactTable merges the oldest run of small level-0 chunks of one
// table into a single level-1 chunk and reports whether it did any
// work. A run is a consecutive (by sequence) stretch of committed
// level-0 chunks each smaller than the target block size; it must hold
// at least CompactMinChunks chunks to be worth the rewrite, and is
// capped at CompactMaxRows rows per pass.
func (s *Service) CompactTable(table string) (bool, error) {
	s.mu.Lock()
	ts := s.tables[table]
	s.mu.Unlock()
	if ts == nil {
		return false, fmt.Errorf("ingest: unknown table %q", table)
	}
	// flushMu keeps compaction runs of the same table from racing each
	// other; appending flushes are safe concurrently (they only grow
	// ts.chunks past the run under s.mu).
	ts.flushMu.Lock()
	defer ts.flushMu.Unlock()

	s.mu.Lock()
	inputs := pickCompaction(ts.chunks, s.cfg.compactMinChunks(), s.cfg.targetBlockRows(), s.cfg.compactMaxRows())
	schema := ts.schema
	s.mu.Unlock()
	if len(inputs) == 0 {
		return false, nil
	}

	start := time.Now()
	chunks := make([]*btrblocks.Chunk, len(inputs))
	var bytesBefore int64
	rows := 0
	for i := range inputs {
		chunk, err := s.readChunk(table, schema, &inputs[i])
		if err != nil {
			return false, fmt.Errorf("compact %s/%s: %w", table, inputs[i].base(), err)
		}
		chunks[i] = &chunk
		bytesBefore += inputs[i].Bytes
		rows += inputs[i].Rows
	}
	merged := concatChunk(chunks, rows)
	if merged.NumRows() != rows {
		return false, fmt.Errorf("compact %s: inputs decode to %d rows, markers say %d",
			table, merged.NumRows(), rows)
	}

	out, err := s.publishChunk(context.Background(), table, &merged, chunkInfo{
		Seq:    inputs[len(inputs)-1].Seq,
		MinSeq: inputs[0].MinSeq,
		Level:  1,
		Rows:   rows,
	})
	if err != nil {
		s.met.PublishErrors.Add(1)
		return false, err
	}

	s.mu.Lock()
	kept := ts.chunks[:0]
	for _, c := range ts.chunks {
		consumed := false
		for i := range inputs {
			if c.Seq == inputs[i].Seq && c.Level == inputs[i].Level {
				consumed = true
				break
			}
		}
		if !consumed {
			kept = append(kept, c)
		}
	}
	kept = append(kept, *out)
	sort.Slice(kept, func(i, j int) bool { return kept[i].Seq < kept[j].Seq })
	ts.chunks = kept
	s.mu.Unlock()

	// The output is committed; the inputs are now redundant copies.
	for i := range inputs {
		s.removeChunk(context.Background(), table, &inputs[i])
	}

	s.met.Compactions.Add(1)
	s.met.CompactedChunks.Add(int64(len(inputs)))
	s.met.CompactedRows.Add(int64(rows))
	s.met.CompactionBytesBefore.Add(bytesBefore)
	s.met.CompactionBytesAfter.Add(out.Bytes)
	s.met.CompactLatency.Observe(time.Since(start))
	s.log.Info("compacted", "table", table, "chunks", len(inputs), "rows", rows,
		"bytes_before", bytesBefore, "bytes_after", out.Bytes, "out", out.base())
	return true, nil
}

// pickCompaction selects the oldest consecutive run of small level-0
// chunks. Level-1 chunks and full-size level-0 chunks break runs — a
// chunk flushed at the 64k threshold is already a full block and gains
// nothing from a rewrite.
func pickCompaction(chunks []chunkInfo, minChunks, targetRows, maxRows int) []chunkInfo {
	if minChunks < 2 {
		minChunks = 2
	}
	var run []chunkInfo
	for i := range chunks {
		c := chunks[i]
		if c.Level != 0 || c.Rows >= targetRows {
			if len(run) >= minChunks {
				break
			}
			run = run[:0]
			continue
		}
		run = append(run, c)
	}
	if len(run) < minChunks {
		return nil
	}
	// Cap the pass: keep the oldest prefix whose rows fit the budget,
	// but never truncate below the configured minimum run length.
	total := 0
	for i := range run {
		if total+run[i].Rows > maxRows && i >= minChunks {
			return run[:i]
		}
		total += run[i].Rows
	}
	return run
}

// readChunk loads and decompresses one committed chunk back into rows.
func (s *Service) readChunk(table string, schema []btrblocks.Column, info *chunkInfo) (btrblocks.Chunk, error) {
	var chunk btrblocks.Chunk
	if len(info.Files) != len(schema) {
		return chunk, fmt.Errorf("chunk has %d files, schema has %d columns", len(info.Files), len(schema))
	}
	tdir := filepath.Join(s.dir, table)
	chunk.Columns = make([]btrblocks.Column, len(schema))
	for i, name := range info.Files {
		data, err := os.ReadFile(filepath.Join(tdir, name))
		if err != nil {
			return chunk, err
		}
		col, err := btrblocks.DecompressColumn(data, s.compressOptions(info.Level))
		if err != nil {
			return chunk, fmt.Errorf("%s: %w", name, err)
		}
		col.Name = schema[i].Name
		if col.Type != schema[i].Type {
			return chunk, fmt.Errorf("%s: decodes to %v, schema says %v", name, col.Type, schema[i].Type)
		}
		chunk.Columns[i] = col
	}
	rows := chunk.NumRows()
	for i := range chunk.Columns {
		if chunk.Columns[i].Len() != rows {
			return chunk, fmt.Errorf("ragged chunk: column %s has %d rows, chunk has %d",
				chunk.Columns[i].Name, chunk.Columns[i].Len(), rows)
		}
	}
	return chunk, nil
}
