package store

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sweep"
)

// fastPeerOpts keeps retry/backoff latency out of the test suite.
func fastPeerOpts() PeerOptions {
	return PeerOptions{
		Timeout:       time.Second,
		Retries:       2,
		Backoff:       time.Millisecond,
		FailThreshold: 2,
		Cooldown:      50 * time.Millisecond,
	}
}

// runGrid runs the grid through a Runner backed by cache.
func runGrid(t *testing.T, grid sweep.Grid, cache sweep.Cache) *sweep.ResultSet {
	t.Helper()
	runner := sweep.Runner{Jobs: 2, Cache: cache, OnPutError: func(_ sweep.Request, err error) {
		t.Errorf("put: %v", err)
	}}
	set, err := runner.Execute(grid.Expand())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestPeerReadThrough: a store with an empty local dir but a warm peer
// serves every cell from the peer, materializes the objects locally,
// and emits bytes identical to the run that populated the peer.
func TestPeerReadThrough(t *testing.T) {
	grid := tinyGrid()
	cells := len(grid.Expand())

	upstream, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := emit(t, runGrid(t, grid, upstream))
	srv := httptest.NewServer(NewHandler(upstream))
	defer srv.Close()

	local, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := local.SetPeer(srv.URL, fastPeerOpts()); err != nil {
		t.Fatal(err)
	}
	got := emit(t, runGrid(t, grid, local))
	if string(got) != string(want) {
		t.Fatalf("peer-served run differs from direct run:\n%s\nvs\n%s", got, want)
	}

	st := local.Stats()
	if st.Hits != int64(cells) || st.Misses != 0 {
		t.Fatalf("local stats = %+v, want %d hits / 0 misses", st, cells)
	}
	ps, ok := local.PeerStats()
	if !ok || ps.Hits != int64(cells) {
		t.Fatalf("peer stats = %+v (ok=%v), want %d fetches", ps, ok, cells)
	}

	// Read-through materialized the objects: a second run is purely
	// local (the peer sees no more GETs).
	_ = emit(t, runGrid(t, grid, local))
	ps2, _ := local.PeerStats()
	if ps2.Hits != ps.Hits {
		t.Fatalf("second run hit the peer: %d -> %d fetches", ps.Hits, ps2.Hits)
	}
}

// TestReadThroughCopyIsByteIdentical: GET /objects/{key} serves the
// stored file as it is, so an object a store fetches through its peer
// is byte-for-byte its origin file — as write-behind copies are.
func TestReadThroughCopyIsByteIdentical(t *testing.T) {
	grid := tinyGrid()
	upstream, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runGrid(t, grid, upstream)
	srv := httptest.NewServer(NewHandler(upstream))
	defer srv.Close()
	local, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := local.SetPeer(srv.URL, fastPeerOpts()); err != nil {
		t.Fatal(err)
	}
	runGrid(t, grid, local)

	for _, req := range grid.Expand() {
		key := upstream.Key(req)
		origin, err := os.ReadFile(upstream.objectPath(key))
		if err != nil {
			t.Fatal(err)
		}
		copied, err := os.ReadFile(local.objectPath(key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(copied, origin) {
			t.Fatalf("read-through copy of %s differs from its origin:\n%s\nvs\n%s", key[:12], copied, origin)
		}
	}
}

// TestPeerWriteBehind: Puts against a peered store replicate to the
// upstream, which can then serve a third, fresh store.
func TestPeerWriteBehind(t *testing.T) {
	grid := tinyGrid()
	cells := len(grid.Expand())

	upstream, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(upstream))
	defer srv.Close()

	local, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := local.SetPeer(srv.URL, fastPeerOpts()); err != nil {
		t.Fatal(err)
	}
	want := emit(t, runGrid(t, grid, local))
	local.Flush()

	if got := upstream.Stats().Puts; got != int64(cells) {
		t.Fatalf("upstream has %d objects, want %d", got, cells)
	}
	ps, _ := local.PeerStats()
	if ps.Puts != int64(cells) || ps.Dropped != 0 {
		t.Fatalf("peer stats = %+v, want %d puts / 0 dropped", ps, cells)
	}

	// The replicated objects round-trip: a different store reading the
	// upstream directly is byte-identical.
	if got := emit(t, runGrid(t, grid, upstream)); string(got) != string(want) {
		t.Fatalf("replicated results differ from original run")
	}
}

// TestPeerDownDegradesToLocal: a dead peer never fails a sweep — the
// circuit opens after FailThreshold errors and the store runs
// local-only, without hammering the peer once the breaker trips.
func TestPeerDownDegradesToLocal(t *testing.T) {
	grid := tinyGrid()

	var requests atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer dead.Close()

	local, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := fastPeerOpts()
	opt.Cooldown = time.Hour // breaker stays open for the whole test
	if err := local.SetPeer(dead.URL, opt); err != nil {
		t.Fatal(err)
	}

	got := emit(t, runGrid(t, grid, local))
	local.Flush()

	plain, err := grid.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := emit(t, plain); string(got) != string(want) {
		t.Fatalf("degraded run differs from uncached run")
	}

	// After FailThreshold consecutive errors the breaker opens; with a
	// long cooldown, no further requests get through, so total peer
	// traffic is bounded by the threshold — not cells × retries.
	if n := requests.Load(); n > int64(opt.FailThreshold) {
		t.Fatalf("dead peer saw %d requests, want <= %d (circuit should open)", n, opt.FailThreshold)
	}
	ps, _ := local.PeerStats()
	if ps.Up {
		t.Fatal("peer reported up after repeated failures")
	}
	if ps.Dropped == 0 {
		t.Fatal("expected write-behind objects dropped while peer is down")
	}
}

// TestPeerRecoveryAfterCooldown: once the cooldown elapses, a single
// probe request reopens the circuit against a recovered peer.
func TestPeerRecoveryAfterCooldown(t *testing.T) {
	upstream, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var failing atomic.Bool
	failing.Store(true)
	h := NewHandler(upstream)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	grid := tinyGrid()
	reqs := grid.Expand()
	want := emit(t, runGrid(t, grid, upstream))

	local, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := local.SetPeer(srv.URL, fastPeerOpts()); err != nil {
		t.Fatal(err)
	}

	// Trip the breaker.
	for i := 0; i < 3; i++ {
		local.Get(reqs[0])
	}
	if ps, _ := local.PeerStats(); ps.Up {
		t.Fatal("breaker did not open")
	}

	// Peer recovers; after the cooldown the probe succeeds and
	// read-through works again.
	failing.Store(false)
	time.Sleep(60 * time.Millisecond)
	got := emit(t, runGrid(t, grid, local))
	if string(got) != string(want) {
		t.Fatalf("post-recovery run differs from upstream run")
	}
	if ps, _ := local.PeerStats(); !ps.Up || ps.Hits == 0 {
		t.Fatalf("peer stats after recovery = %+v, want up with fetches", ps)
	}
}

// TestPeerRejectsCorruptObjects: a peer serving garbage (or an object
// under the wrong key) cannot poison the local store — every corrupt
// response is a miss and nothing is materialized.
func TestPeerRejectsCorruptObjects(t *testing.T) {
	grid := tinyGrid()
	reqs := grid.Expand()

	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "00"): // unreachable marker; keep handler total
			http.NotFound(w, r)
		default:
			// Well-formed JSON, wrong key.
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"Key":"deadbeef","Result":{"Checksum":42}}`))
		}
	}))
	defer evil.Close()

	local, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := local.SetPeer(evil.URL, fastPeerOpts()); err != nil {
		t.Fatal(err)
	}
	if res, ok := local.Get(reqs[0]); ok {
		t.Fatalf("corrupt peer object served as hit: %+v", res)
	}
	if got := local.Stats().Puts; got != 0 {
		t.Fatalf("corrupt object materialized locally (%d puts)", got)
	}

	// And the server side has the same guard: a PUT whose body does not
	// match the key is rejected.
	upstream, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(upstream))
	defer srv.Close()
	key := upstream.Key(reqs[0])
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/objects/"+key,
		strings.NewReader(`{"Key":"deadbeef"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched PUT: got %d, want 400", resp.StatusCode)
	}
	if got := upstream.Stats().Puts; got != 0 {
		t.Fatalf("mismatched PUT stored an object (%d puts)", got)
	}
}

// TestPeerHandlerErrors pins the server-side error contract.
func TestPeerHandlerErrors(t *testing.T) {
	upstream, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(upstream))
	defer srv.Close()

	check := func(method, path string, want int) {
		t.Helper()
		req, _ := http.NewRequest(method, srv.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s %s: got %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	missing := strings.Repeat("ab", 32)
	check(http.MethodGet, "/objects/"+missing, http.StatusNotFound)
	check(http.MethodGet, "/objects/not-a-key", http.StatusBadRequest)
	check(http.MethodGet, "/objects/", http.StatusBadRequest)
	check(http.MethodDelete, "/objects/"+missing, http.StatusMethodNotAllowed)
}
