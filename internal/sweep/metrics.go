package sweep

import "repro/internal/obs"

// Metrics holds the engine's instruments: how each cell was served
// (store hit, direct simulation, or a trace replay) and per-phase
// execution-latency histograms — the interp-vs-sim split of the
// record/replay architecture, measured per cell. One Metrics registers once on a registry and may be shared by
// any number of Runners (all instruments are atomic).
//
// Observations wrap the simulator calls from outside — they read the
// clock and bump atomics, never touching simulator state — so result
// sets stay byte-identical with metrics on (pinned by a test).
type Metrics struct {
	CellsCache    *obs.Counter // served by the result cache up front
	CellsDirect   *obs.Counter // full direct simulations
	CellsReplayed *obs.Counter // retimed from a trace image

	DirectSeconds *obs.Histogram // full simulation (interp + timing)
	RecordSeconds *obs.Histogram // recording and decoding a group's trace
	ReplaySeconds *obs.Histogram // timing-only replay of one cell
}

// NewMetrics registers the engine's instruments on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	cells := func(source string) *obs.Counter {
		return reg.Counter("swpf_sweep_cells_total",
			"Cells completed by the sweep engine, by how they were served.",
			obs.L("source", source))
	}
	seconds := func(phase string) *obs.Histogram {
		return reg.Histogram("swpf_sweep_cell_seconds",
			"Per-cell execution latency in seconds, by engine phase.",
			nil, obs.L("phase", phase))
	}
	return &Metrics{
		CellsCache:    cells("cache"),
		CellsDirect:   cells("direct"),
		CellsReplayed: cells("replayed"),
		DirectSeconds: seconds("direct"),
		RecordSeconds: seconds("record"),
		ReplaySeconds: seconds("replay"),
	}
}

// nopMetrics backs Runners with no Metrics set: real instruments on a
// private registry nothing scrapes, so Execute stays branch-free.
var nopMetrics = NewMetrics(obs.NewRegistry())

// metrics returns the Runner's instruments, never nil.
func (r Runner) metrics() *Metrics {
	if r.Metrics != nil {
		return r.Metrics
	}
	return nopMetrics
}
