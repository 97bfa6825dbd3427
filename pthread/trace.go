package pthread

import (
	"spthreads/internal/metrics"
	"spthreads/internal/trace"
)

// TraceRecorder collects scheduler events (create, dispatch, preempt,
// block, wake, exit) when attached to Config.Tracer. See the trace
// package for rendering (Gantt, Summary).
type TraceRecorder = trace.Recorder

// TraceEvent is one recorded scheduler event.
type TraceEvent = trace.Event

// NewTraceRecorder creates a recorder holding up to capacity events
// (0 selects a generous default).
func NewTraceRecorder(capacity int) *TraceRecorder {
	return trace.NewRecorder(capacity)
}

// Metrics is a registry of named scheduler/memory instruments collected
// when attached to Config.Metrics; its final snapshot is returned in
// Stats.Metrics. See the metrics package for the instrument types.
type Metrics = metrics.Registry

// MetricsSnapshot is a point-in-time copy of every instrument, suitable
// for JSON output.
type MetricsSnapshot = metrics.Snapshot

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return metrics.NewRegistry() }
