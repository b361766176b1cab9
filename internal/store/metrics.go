package store

import "repro/internal/obs"

// Register exposes the store's counters on an obs.Registry as a
// scrape-time collector: every sample within one scrape comes from a
// single Stats() snapshot, so result and trace series are mutually
// consistent and identical to what GET /fleet reports. The store's own
// hot paths keep their plain atomics — the collector adds no
// per-Get/Put cost.
func (s *Store) Register(reg *obs.Registry) {
	reg.Collect(func(emit func(obs.Sample)) {
		counter := func(name, help string, v int64) {
			emit(obs.Sample{Name: name, Help: help, Kind: obs.KindCounter, Value: float64(v)})
		}
		st := s.Stats()
		counter("swpf_store_hits_total", "Result-cache hits.", st.Hits)
		counter("swpf_store_misses_total", "Result-cache misses.", st.Misses)
		counter("swpf_store_puts_total", "Result objects persisted.", st.Puts)
		counter("swpf_store_trace_hits_total", "Trace-cache hits.", st.TraceHits)
		counter("swpf_store_trace_misses_total", "Trace-cache misses.", st.TraceMisses)
		counter("swpf_store_trace_puts_total", "Trace objects persisted.", st.TracePuts)
	})
}
