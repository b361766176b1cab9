package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestMetricsEndpoint drives a one-local-worker daemon through a
// submission and checks the observability surface: /metrics agrees
// with /fleet, the middleware stamps request IDs, /debug/vars serves
// JSON, and pprof stays unmounted without -debug.
func TestMetricsEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServerCfg(config{store: st, stderr: &bytes.Buffer{}}))
	t.Cleanup(ts.Close)

	id, cells := submit(t, ts, tinySpec)
	if final := poll(t, ts, id); final.State != stateDone {
		t.Fatalf("job did not finish: %+v", final)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if rid := resp.Header.Get(obs.RequestIDHeader); rid == "" {
		t.Error("no request-ID header on the response")
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	code, body := fetch(t, ts, "/fleet")
	if code != http.StatusOK {
		t.Fatalf("GET /fleet = %d", code)
	}
	var fs FleetStatus
	if err := json.Unmarshal(body, &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Queue.Completed != int64(cells) {
		t.Fatalf("completed = %d, want %d", fs.Queue.Completed, cells)
	}
	for name, want := range map[string]float64{
		"swpf_queue_completed_total":    float64(fs.Queue.Completed),
		"swpf_queue_pending":            0,
		"swpf_store_puts_total":         float64(fs.Store.Puts),
		"swpf_fleet_cell_seconds_count": float64(fs.Queue.Completed),
	} {
		s := obs.Find(samples, name)
		if s == nil || s.Value != want {
			t.Errorf("%s: %+v, want %v", name, s, want)
		}
	}
	// The local worker served every cell through the instrumented
	// sweep engine; cache + direct + replayed must cover the grid.
	var simulated float64
	for _, source := range []string{"cache", "direct", "replayed"} {
		if s := obs.Find(samples, "swpf_sweep_cells_total", obs.L("source", source)); s != nil {
			simulated += s.Value
		}
	}
	if simulated != float64(cells) {
		t.Errorf("sweep sources account for %v cells, want %d", simulated, cells)
	}
	// The middleware counted the submission under its route pattern.
	if s := obs.Find(samples, "swpf_http_requests_total",
		obs.L("route", "POST /sweep"), obs.L("class", "2xx")); s == nil || s.Value != 1 {
		t.Errorf("POST /sweep 2xx count: %+v", s)
	}

	// /debug/vars is the same registry as JSON.
	code, body = fetch(t, ts, "/debug/vars")
	if code != http.StatusOK || !json.Valid(body) {
		t.Errorf("GET /debug/vars = %d, valid JSON = %v", code, json.Valid(body))
	}

	// A caller-supplied request ID is honored, not replaced.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/meta", nil)
	req.Header.Set(obs.RequestIDHeader, "caller-id-1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(obs.RequestIDHeader); got != "caller-id-1" {
		t.Errorf("request ID not honored: %q", got)
	}

	// pprof is gated behind -debug.
	if code, _ := fetch(t, ts, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/ without -debug = %d, want 404", code)
	}
}

// TestDebugPprof: with the debug flag the standard profile index is
// mounted and served through the same middleware.
func TestDebugPprof(t *testing.T) {
	ts := httptest.NewServer(newServerCfg(config{localWorkers: -1, debug: true, stderr: &bytes.Buffer{}}))
	t.Cleanup(ts.Close)
	code, body := fetch(t, ts, "/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ with -debug = %d", code)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index looks wrong: %.120s", body)
	}
}

// TestAccessLog: the middleware writes one slog line per request with
// rid, route, and status attributes.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logFlags := obs.LogFlags{Level: "info", Format: "text"}
	logger, err := logFlags.Logger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServerCfg(config{localWorkers: -1, logger: logger, stderr: &bytes.Buffer{}}))
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/meta?quality=tiny", nil)
	req.Header.Set(obs.RequestIDHeader, "rid-under-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	logged := buf.String()
	var line string
	for _, l := range strings.Split(logged, "\n") {
		if strings.Contains(l, "msg=http") && strings.Contains(l, "rid=rid-under-test") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no access-log line for the request:\n%s", logged)
	}
	for _, want := range []string{`route="GET /meta"`, "status=200", "method=GET"} {
		if !strings.Contains(line, want) {
			t.Errorf("access log line missing %s: %s", want, line)
		}
	}
}
