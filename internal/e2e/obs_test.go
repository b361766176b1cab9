package e2e

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// scrapeMetrics fetches and parses the coordinator's /metrics.
func scrapeMetrics(t *testing.T, f *Fleet) []obs.Sample {
	t.Helper()
	resp, err := http.Get(f.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestFleetMetricsConsistency runs a real 3-worker fleet through a
// submission and checks that the /metrics exposition, the /fleet JSON,
// and the swpfctl top/doctor renderings all tell the same story — the
// observability acceptance test on live processes.
func TestFleetMetricsConsistency(t *testing.T) {
	f := StartFleet(t, FleetConfig{Workers: 3, StoreDir: t.TempDir()})

	sp := tinySpec{workloads: "IS,CG", systems: "A53", variants: "plain,auto"}
	cells := len(sp.grid(t).Expand())
	if _, err := submitWait(f, sp); err != nil {
		t.Fatalf("submit: %v\ncoordinator stderr:\n%s", err, f.CoordinatorStderr())
	}

	samples := scrapeMetrics(t, f)
	fs := f.Stats()
	want := map[string]float64{
		"swpf_queue_completed_total":    float64(fs.Queue.Completed),
		"swpf_queue_pending":            float64(fs.Queue.Pending),
		"swpf_queue_leased":             float64(fs.Queue.Leased),
		"swpf_queue_requeued_total":     float64(fs.Queue.Requeued),
		"swpf_queue_workers":            float64(len(fs.Queue.Workers)),
		"swpf_store_puts_total":         float64(fs.Store.Puts),
		"swpf_fleet_cell_seconds_count": float64(fs.Queue.Completed),
	}
	for name, w := range want {
		s := obs.Find(samples, name)
		if s == nil {
			t.Errorf("metric %s missing from /metrics", name)
			continue
		}
		if s.Value != w {
			t.Errorf("%s = %v, /fleet says %v", name, s.Value, w)
		}
	}
	if fs.Queue.Completed != int64(cells) {
		t.Errorf("completed = %d, want %d", fs.Queue.Completed, cells)
	}
	// The fleet protocol itself is instrumented: three workers polled
	// /fleet/lease at least once each. A request is counted once it is
	// answered, and an idle worker's long-polled lease is answered only
	// when its 1 s wait runs out, so give the polls that time.
	leaseRequests := func(samples []obs.Sample) float64 {
		n := 0.0
		for _, s := range samples {
			if s.Name != "swpf_http_requests_total" {
				continue
			}
			for _, l := range s.Labels {
				if l.Key == "route" && l.Value == "POST /fleet/lease" {
					n += s.Value
				}
			}
		}
		return n
	}
	leases := leaseRequests(samples)
	for deadline := time.Now().Add(10 * time.Second); leases < 3 && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		leases = leaseRequests(scrapeMetrics(t, f))
	}
	if leases < 3 {
		t.Errorf("POST /fleet/lease requests = %v, want >= 3", leases)
	}

	// swpfctl top renders the same counters from the same exposition.
	top := f.Swpfctl("top")
	if !strings.Contains(top, fmt.Sprintf("completed %d", cells)) {
		t.Errorf("top does not show %d completed cells:\n%s", cells, top)
	}
	if !strings.Contains(top, "workers 3") {
		t.Errorf("top does not show 3 workers:\n%s", top)
	}
	if !strings.Contains(top, "POST /fleet/complete") {
		t.Errorf("top shows no http route table:\n%s", top)
	}

	// A healthy fleet: doctor reports no anomalies.
	doc := f.Swpfctl("doctor")
	if strings.Contains(doc, "warning:") {
		t.Errorf("doctor warns on a healthy fleet:\n%s", doc)
	}
}

// TestRequestIDPropagation checks the correlation contract across real
// processes: the coordinator stamps a request ID on the lease response,
// the worker logs the batch's execution under it and sends it back on
// complete, and the coordinator's access log carries the same ID on the
// completion request — one grep joins both sides of a cell's lifecycle.
func TestRequestIDPropagation(t *testing.T) {
	f := StartFleet(t, FleetConfig{Workers: 1, StoreDir: t.TempDir()})

	sp := tinySpec{workloads: "IS", systems: "A53", variants: "plain,auto"}
	if _, err := submitWait(f, sp); err != nil {
		t.Fatal(err)
	}

	// The worker logs `msg=complete ... rid=<id>` once its report is
	// accepted; the log line may land shortly after -wait returns.
	deadline := time.Now().Add(10 * time.Second)
	var rid string
	for rid == "" {
		for _, line := range strings.Split(f.workers[0].dump(), "\n") {
			if !strings.Contains(line, "msg=complete") {
				continue
			}
			if v, ok := attrValue(line, "rid"); ok && v != "" {
				rid = v
				break
			}
		}
		if rid != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never logged a completion rid; worker stderr:\n%s", f.workers[0].dump())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The coordinator's access log must show the completion request
	// under the same rid.
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(f.CoordinatorStderr(), "\n") {
			if strings.Contains(line, "/fleet/complete") && strings.Contains(line, "rid="+rid) {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("coordinator access log has no /fleet/complete line with rid=%s; stderr:\n%s",
		rid, f.CoordinatorStderr())
}
