package sweep

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// TestMetricsDoNotPerturbResults is the instrumentation safety gate:
// the same grid run with and without Metrics attached must emit
// byte-identical JSON and CSV — observations wrap the simulator calls
// from outside and cannot change what they compute.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	g := Grid{
		Workloads: workloads.Tiny()[:2],
		Systems:   uarch.All()[:2],
		Variants:  []core.Variant{core.VariantPlain, core.VariantAuto},
	}
	reqs := g.Expand()

	bare, err := Runner{Jobs: 2}.Execute(reqs)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	instrumented, err := Runner{Jobs: 2, Metrics: NewMetrics(reg)}.Execute(reqs)
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := bare.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := instrumented.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("JSON output differs with metrics attached")
	}
	a.Reset()
	b.Reset()
	if err := bare.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := instrumented.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("CSV output differs with metrics attached")
	}
}

// TestMetricsAccounting checks the source counters across the cache,
// direct, record and replay paths, and that the phase histograms saw
// exactly the cells their phases ran.
func TestMetricsAccounting(t *testing.T) {
	g := Grid{
		Workloads: workloads.Tiny()[:2],
		Systems:   uarch.All()[:2],
		Variants:  []core.Variant{core.VariantAuto},
		Execs:     []core.ExecMode{core.ExecReplay},
	}
	reqs := g.Expand() // 2 workloads × 2 systems = 4 cells, 2 replay groups

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	cache := newMemTraceCache()
	cache.serveResults = true
	r := Runner{Jobs: 2, Cache: cache, Metrics: m}
	if _, err := r.Execute(reqs); err != nil {
		t.Fatal(err)
	}
	// Cold: each group records once and replays every cell.
	if got := m.CellsReplayed.Value(); got != 4 {
		t.Errorf("replayed = %d, want 4", got)
	}
	if got := m.CellsCache.Value(); got != 0 {
		t.Errorf("cache-served = %d, want 0 on the cold pass", got)
	}
	if got := m.RecordSeconds.Count(); got != 2 {
		t.Errorf("record observations = %d, want 2", got)
	}
	if got := m.ReplaySeconds.Count(); got != 4 {
		t.Errorf("replay observations = %d, want 4", got)
	}

	// Warm: every cell answers from the cache.
	if _, err := r.Execute(reqs); err != nil {
		t.Fatal(err)
	}
	if got := m.CellsCache.Value(); got != 4 {
		t.Errorf("cache-served = %d after the warm pass, want 4", got)
	}
	if got := m.CellsReplayed.Value(); got != 4 {
		t.Errorf("simulated total moved on the warm pass: %d", got)
	}

	// Direct cells land in the direct counter and histogram.
	direct := Grid{
		Workloads: workloads.Tiny()[:1],
		Systems:   uarch.All()[:1],
		Variants:  []core.Variant{core.VariantPlain},
	}.Expand()
	if _, err := (Runner{Jobs: 1, Metrics: m}).Execute(direct); err != nil {
		t.Fatal(err)
	}
	if got := m.CellsDirect.Value(); got != 1 {
		t.Errorf("direct = %d, want 1", got)
	}
	if got := m.DirectSeconds.Count(); got != 1 {
		t.Errorf("direct observations = %d, want 1", got)
	}
}
