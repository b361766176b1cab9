package store

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sweep"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

var updateFormat = flag.Bool("update-format", false, "rewrite testdata/format from the current code")

// formatKeys is testdata/format/keys.json.
type formatKeys struct {
	Result string `json:"result"`
	Trace  string `json:"trace"`
	Fleet  string `json:"fleet"`
}

// formatCell is the one tiny cell the format fixture pins.
func formatCell(t *testing.T) sweep.Request {
	t.Helper()
	pool, err := workloads.PoolByQuality("tiny")
	if err != nil {
		t.Fatal(err)
	}
	return sweep.Request{
		Workload: pool[0],
		System:   uarch.A53(),
		Variant:  core.VariantAuto,
		Options:  core.Options{C: 16, Hoist: true},
		Exec:     core.ExecReplay,
	}
}

// cellResultBody is the /fleet/complete entry a worker reports for res.
func cellResultBody(t *testing.T, key string, res *core.Result) []byte {
	t.Helper()
	b, err := json.Marshal(fleet.CellResult{Key: key, Result: &res.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFormatFixture pins every byte a cell leaves behind outside the
// process: its result, trace and fleet keys, its object file, its wire
// spec and its completion entry. A mismatch means stores, peers or
// workers of different builds no longer understand each other.
func TestFormatFixture(t *testing.T) {
	dir := filepath.Join("testdata", "format")
	req := formatCell(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (sweep.Runner{Jobs: 1, Cache: st}).Execute([]sweep.Request{req}); err != nil {
		t.Fatal(err)
	}
	res, ok := st.Get(req)
	if !ok {
		t.Fatal("cell not stored")
	}
	keys, err := json.MarshalIndent(formatKeys{Result: st.Key(req), Trace: st.TraceKey(req), Fleet: fleet.KeyOf(req)}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	object, err := os.ReadFile(st.objectPath(st.Key(req)))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := fleet.SpecFor("tiny", req)
	if err != nil {
		t.Fatal(err)
	}
	specBody, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{
		"keys.json":       append(keys, '\n'),
		"object.json":     object,
		"spec.json":       append(specBody, '\n'),
		"cellresult.json": append(cellResultBody(t, fleet.KeyOf(req), res), '\n'),
	}
	for name, b := range got {
		path := filepath.Join(dir, name)
		if *updateFormat {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			t.Errorf("%s changed:\n got %s\nwant %s", name, b, want)
		}
	}
}
