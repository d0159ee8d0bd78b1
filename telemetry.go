package btrblocks

import (
	"time"

	"btrblocks/internal/core"
	"btrblocks/internal/obs"
)

// This file connects the compression pipeline to the telemetry recorder:
// Options.Telemetry, when set, receives one BlockTrace per compressed
// block, the cascade tree of scheme picks with every candidate the
// picker scored. The recorder itself lives in internal/obs; the aliases
// below make it usable from outside the module.

// Telemetry is a thread-safe recorder for per-block compression
// telemetry. Create one with NewTelemetry, set it on Options.Telemetry,
// and read it with its Snapshot method: the snapshot's Report renders
// the aggregates, its Trace returns the decision trace. A nil
// *Telemetry is valid and records nothing.
type Telemetry = obs.Telemetry

// TelemetrySnapshot is a consistent copy of a recorder's state: per-block
// decision traces plus the aggregates derived from them (scheme pick
// frequencies, ratio histogram, byte and time totals) and the decode-side
// counters.
type TelemetrySnapshot = obs.TelemetrySnapshot

// DecisionTrace is the exported decision-trace document: one BlockTrace
// per block, ordered by (column, block), with a schema version. Its JSON
// encoding is specified in OBSERVABILITY.md; Validate checks a document
// against that schema and RenderTree prints it for humans.
type DecisionTrace = obs.Trace

// BlockTrace is the decision trace of one compressed block: the cascade
// tree of scheme selections, each with its candidate estimates.
type BlockTrace = obs.BlockTrace

// TraceNode is one scheme-selection decision in a block's cascade tree.
type TraceNode = obs.Node

// TraceCandidate is one scheme the picker scored for a stream.
type TraceCandidate = obs.Candidate

// TraceVersion is the decision-trace JSON schema version (see
// OBSERVABILITY.md).
const TraceVersion = obs.TraceVersion

// NewTelemetry returns an empty recorder.
func NewTelemetry() *Telemetry { return obs.NewTelemetry() }

// telemetryRecorder returns the recorder to use, or nil when disabled.
func (o *Options) telemetryRecorder() *Telemetry {
	if o == nil {
		return nil
	}
	return o.Telemetry
}

// recordBlock compresses rows [lo, hi) of col with the decision hook
// installed and records the decision trail on rec as the block's
// cascade tree. Only called when a recorder is set: the per-block Config
// copy and the timing calls are the observed path's cost, not the
// default path's.
func recordBlock(col *Column, block, lo, hi int, cfg *core.Config, rec *Telemetry) []byte {
	var decisions []core.Decision
	tcfg := *cfg
	tcfg.OnDecision = func(d core.Decision) { decisions = append(decisions, d) }
	start := time.Now()
	out := encodeBlock(col, lo, hi, &tcfg)
	elapsed := time.Since(start).Nanoseconds()
	rec.RecordBlock(obs.BlockTraceFromDecisions(col.Name, block, col.Type.String(), hi-lo, elapsed, decisions))
	return out
}
