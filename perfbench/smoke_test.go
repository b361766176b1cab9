package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeSeed must have recorded digests in digests.json.
const smokeSeed = 1

type contract struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

// TestSmoke runs every workload once, untraced and traced, at its
// smallest size, and checks that every metric BENCHMARK.json names is
// reported with its unit, that the result-set digests match the
// recorded ones, and that nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	swpfd := filepath.Join(t.TempDir(), "swpfd")
	if out, err := exec.Command("go", "build", "-o", swpfd, "repro/cmd/swpfd").CombinedOutput(); err != nil {
		t.Fatalf("building swpfd: %v\n%s", err, out)
	}
	for _, w := range c.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.Name, traced), func(t *testing.T) {
				cfg := &config{
					workload: w.Name, seed: smokeSeed, seconds: 0.5, trace: traced,
					swpfd: swpfd, outDir: t.TempDir(), jobs: 2, digests: "digests.json",
					started: time.Now(),
				}
				res := newResult()
				if err := workloadRuns[w.Name](cfg, res); err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 || len(res.problems) > 0 {
					t.Errorf("%d/%d failed, problems %q", res.failed, res.attempted, res.problems)
				}
				got, want := res.metrics(traced), c.EndToEnd
				if traced {
					want = c.PerLayer
				}
				if len(got) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(got), len(want))
				}
				for _, m := range want {
					g, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case g.Unit != m.Unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
					case !traced && g.Value <= 0:
						t.Errorf("end-to-end metric %s = %v", m.Name, g.Value)
					}
				}
				if w.Name != "fleet-mixed" && !strings.Contains(strings.Join(res.notes, "\n"), "matches the recorded digest") {
					t.Errorf("digest not checked against a recorded one: %q", res.notes)
				}
			})
		}
	}
}
