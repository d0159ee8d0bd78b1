package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"sync/atomic"
	"time"
)

// Request IDs are "r<start>-<seq>": a per-process hex prefix (startup
// time) plus an atomic sequence number — unique within and across
// btrserved restarts without needing crypto randomness, and cheap enough
// to mint on every request.
var (
	ridPrefix = fmt.Sprintf("r%08x", uint32(time.Now().UnixNano()))
	ridSeq    atomic.Uint64
)

// NewRequestID mints a process-unique request ID: the prefix, a dash and
// the sequence number zero-padded to six digits, built with one
// allocation because every request without an inbound ID mints one.
func NewRequestID() string {
	var b [40]byte
	var d [20]byte
	digits := strconv.AppendUint(d[:0], ridSeq.Add(1), 10)
	id := append(append(b[:0], ridPrefix...), '-')
	for i := len(digits); i < 6; i++ {
		id = append(id, '0')
	}
	return string(append(id, digits...))
}

type ridKey struct{}

// WithRequestID attaches a request ID to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ridKey{}, id)
}

// RequestIDFrom returns the context's request ID, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// NewLogger returns a JSON-lines slog logger writing to w. JSON (not
// text) so concurrent request logs stay machine-parseable line by line —
// the slog handler serializes writes, and the race tests assert no
// interleaved-corrupt records.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}
