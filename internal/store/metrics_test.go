package store

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// scrape renders and re-parses the registry.
func scrape(t *testing.T, reg *obs.Registry) []obs.Sample {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestStoreMetrics: the collector mirrors Stats() — a miss, a put and
// a hit all surface under the swpf_store_* names.
func TestStoreMetrics(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Register(reg)

	req := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantAuto,
		Options:  core.Options{C: 16},
	}
	if _, ok := s.Get(req); ok {
		t.Fatal("unexpected hit on an empty store")
	}
	if err := s.Put(req, &core.Result{Snapshot: core.Snapshot{Checksum: 1, Cycles: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(req); !ok {
		t.Fatal("miss after Put")
	}

	samples := scrape(t, reg)
	for name, want := range map[string]float64{
		"swpf_store_hits_total":   1,
		"swpf_store_misses_total": 1,
		"swpf_store_puts_total":   1,
	} {
		if got := obs.Find(samples, name); got == nil || got.Value != want {
			t.Errorf("%s: %+v, want %v", name, got, want)
		}
	}
	// No peer attached: no peer series at all.
	if got := obs.Find(samples, "swpf_store_peer_up"); got != nil {
		t.Errorf("peer series exposed without a peer: %+v", got)
	}
}

// TestPeerMetrics: peer traffic, breaker transitions, and the up gauge
// surface per peer base URL; a dead peer trips the breaker exactly
// once per consecutive-failure run.
func TestPeerMetrics(t *testing.T) {
	upstream, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(upstream))
	local, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := local.SetPeer(srv.URL, fastPeerOpts()); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	local.Register(reg)
	peerLabel := obs.L("peer", srv.URL)

	req := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantAuto,
	}
	if _, ok := local.Get(req); ok {
		t.Fatal("unexpected hit")
	}
	samples := scrape(t, reg)
	if s := obs.Find(samples, "swpf_store_peer_up", peerLabel); s == nil || s.Value != 1 {
		t.Fatalf("peer up: %+v", s)
	}
	if s := obs.Find(samples, "swpf_store_peer_misses_total", peerLabel); s == nil || s.Value != 1 {
		t.Fatalf("peer misses: %+v", s)
	}
	if s := obs.Find(samples, "swpf_store_peer_breaker_transitions_total", peerLabel); s == nil || s.Value != 0 {
		t.Fatalf("transitions before failures: %+v", s)
	}

	// Kill the peer: FailThreshold consecutive errors open the breaker
	// once (not once per failure).
	srv.Close()
	for i := 0; i < fastPeerOpts().FailThreshold+2; i++ {
		local.Get(req)
	}
	samples = scrape(t, reg)
	if s := obs.Find(samples, "swpf_store_peer_up", peerLabel); s == nil || s.Value != 0 {
		t.Fatalf("peer up after death: %+v", s)
	}
	if s := obs.Find(samples, "swpf_store_peer_breaker_transitions_total", peerLabel); s == nil || s.Value != 1 {
		t.Fatalf("transitions after death: %+v", s)
	}
	if s := obs.Find(samples, "swpf_store_peer_errors_total", peerLabel); s == nil || s.Value < float64(fastPeerOpts().FailThreshold) {
		t.Fatalf("peer errors: %+v", s)
	}
	ps, ok := local.PeerStats()
	if !ok || ps.Transitions != 1 {
		t.Fatalf("PeerStats transitions = %+v", ps)
	}
}

// TestPeerQueueDepthMetric: the write-behind queue depth gauge tracks
// len(queue) — nonzero while a slow peer holds replication back.
func TestPeerQueueDepthMetric(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	defer slow.Close()
	defer close(release)

	local, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := fastPeerOpts()
	opt.QueueLen = 8
	if err := local.SetPeer(slow.URL, opt); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	local.Register(reg)

	tiny := workloads.Tiny()
	for i := 0; i < 3; i++ {
		req := sweep.Request{
			Workload: tiny[i%len(tiny)],
			System:   sim.DefaultConfig(),
			Variant:  core.VariantAuto,
			Options:  core.Options{C: int64(8 << i)},
		}
		if err := local.Put(req, &core.Result{Snapshot: core.Snapshot{Checksum: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	s := obs.Find(scrape(t, reg), "swpf_store_peer_queue_depth", obs.L("peer", slow.URL))
	if s == nil {
		t.Fatal("queue depth gauge missing")
	}
	// The writer goroutine has consumed at most one item (and is
	// blocked in it); at least one of the three must still be queued.
	if s.Value < 1 {
		t.Fatalf("queue depth = %v, want >= 1", s.Value)
	}
}
