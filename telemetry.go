package btrblocks

import (
	"time"

	"btrblocks/internal/core"
	"btrblocks/internal/obs"
)

// This file connects the compression pipeline to the telemetry recorder:
// Options.Telemetry, when set, receives one BlockEvent per compressed
// block with the full cascade decision trail. The recorder itself lives
// in internal/obs; the aliases below make it usable from outside the
// module.

// Telemetry is a thread-safe recorder for per-block compression
// telemetry. Create one with NewTelemetry, set it on Options.Telemetry,
// and read it with its Snapshot or Report methods. A nil *Telemetry is
// valid and records nothing.
type Telemetry = obs.Telemetry

// TelemetrySnapshot is a consistent copy of a recorder's state: per-block
// events plus aggregate counters (scheme pick frequencies, ratio
// histogram, byte and time totals).
type TelemetrySnapshot = obs.TelemetrySnapshot

// BlockEvent is the telemetry record for one compressed block.
type BlockEvent = obs.BlockEvent

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
// installed and feeds the decision trail to whichever sinks are set: the
// telemetry recorder gets a flat BlockEvent, the tracer gets the full
// cascade tree with candidate estimates. Only called when at least one
// sink is set: the per-block Config copy and the timing calls are the
// observed path's cost, not the default path's.
func recordBlock(col *Column, block, lo, hi int, cfg *core.Config, rec *Telemetry, tracer *Tracer) []byte {
	var decisions []core.Decision
	tcfg := *cfg
	tcfg.OnDecision = func(d core.Decision) { decisions = append(decisions, d) }
	start := time.Now()
	out := encodeBlock(col, lo, hi, &tcfg)
	elapsed := time.Since(start).Nanoseconds()

	if rec != nil {
		rec.RecordBlock(obs.BlockEventFromDecisions(col.Name, block, col.Type.String(), hi-lo, elapsed, decisions))
	}
	if tracer != nil {
		tracer.Record(obs.BlockTraceFromDecisions(col.Name, block, col.Type.String(), hi-lo, elapsed, decisions))
	}
	return out
}
