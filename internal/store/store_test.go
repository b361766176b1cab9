package store

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// tinyGrid is a small but multi-cell experiment grid: two workloads,
// two systems, two variants, non-default options.
func tinyGrid() sweep.Grid {
	tiny := workloads.Tiny()
	return sweep.Grid{
		Workloads: []*workloads.Workload{tiny[0], tiny[1]},
		Systems:   []*sim.Config{sim.DefaultConfig(), inOrderConfig()},
		Variants:  []core.Variant{core.VariantPlain, core.VariantAuto},
		Options:   core.Options{C: 16, Hoist: true},
	}
}

// inOrderConfig is a second machine that differs from DefaultConfig in
// several stat-affecting fields.
func inOrderConfig() *sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Name = "generic-inorder"
	cfg.OutOfOrder = false
	cfg.IssueWidth = 2
	return cfg
}

// emit serializes a result set the way every consumer does.
func emit(t *testing.T, set *sweep.ResultSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWarmSweepBitIdentical is the cache-correctness contract: a sweep
// served entirely from a warm store emits bytes identical to the cold
// run that populated it, and to an uncached run.
func TestWarmSweepBitIdentical(t *testing.T) {
	dir := t.TempDir()
	grid := tinyGrid()
	cells := len(grid.Expand())

	plain, err := grid.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	want := emit(t, plain)

	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	set, err := grid.RunWith(sweep.Runner{Jobs: 2, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	if got := emit(t, set); !bytes.Equal(got, want) {
		t.Fatalf("cold cached run differs from uncached run:\n%s\nvs\n%s", got, want)
	}
	if st := cold.Stats(); st.Hits != 0 || st.Misses != int64(cells) || st.Puts != int64(cells) {
		t.Fatalf("cold stats = %+v, want 0 hits / %d misses / %d puts", st, cells, cells)
	}

	// Reopen: every cell must come from disk, bit-identically.
	warm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	set, err = grid.RunWith(sweep.Runner{Jobs: 2, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	if got := emit(t, set); !bytes.Equal(got, want) {
		t.Fatalf("warm run differs from cold run:\n%s\nvs\n%s", got, want)
	}
	if st := warm.Stats(); st.Hits != int64(cells) || st.Misses != 0 || st.Puts != 0 {
		t.Fatalf("warm stats = %+v, want %d hits / 0 misses / 0 puts", st, cells)
	}
}

// TestKeySensitivity proves every component of a request changes the
// key: workload identity and parameters, any machine-configuration
// field, the variant, every option, and the version salt.
func TestKeySensitivity(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiny := workloads.Tiny()
	base := sweep.Request{
		Workload: tiny[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantAuto,
		Options:  core.Options{C: 16},
	}
	baseKey := s.Key(base)

	mutate := func(name string, f func(r *sweep.Request)) {
		r := base
		f(&r)
		if k := s.Key(r); k == baseKey {
			t.Errorf("%s: key unchanged (%s)", name, k)
		}
	}
	mutate("workload", func(r *sweep.Request) { r.Workload = tiny[1] })
	mutate("workload params", func(r *sweep.Request) {
		w := *tiny[0]
		w.Params = "nkeys=1,nbuckets=1"
		r.Workload = &w
	})
	mutate("variant", func(r *sweep.Request) { r.Variant = core.VariantPlain })
	mutate("option C", func(r *sweep.Request) { r.Options.C = 32 })
	mutate("option Depth", func(r *sweep.Request) { r.Options.Depth = 2 })
	mutate("option Hoist", func(r *sweep.Request) { r.Options.Hoist = true })
	mutate("option FlatOffset", func(r *sweep.Request) { r.Options.FlatOffset = true })
	mutate("option MaxInstrs", func(r *sweep.Request) { r.Options.MaxInstrs = 1 << 20 })
	mutate("system cache size", func(r *sweep.Request) {
		cfg := sim.DefaultConfig()
		cfg.Caches = append([]sim.CacheConfig(nil), cfg.Caches...)
		cfg.Caches[0].Size *= 2
		r.System = cfg
	})
	mutate("system MSHRs", func(r *sweep.Request) {
		cfg := sim.DefaultConfig()
		cfg.MSHRs++
		r.System = cfg
	})
	mutate("system page size", func(r *sweep.Request) {
		cfg := sim.DefaultConfig()
		cfg.PageSize *= 2
		r.System = cfg
	})

	// Same content, different pointer: the key must NOT change — it is
	// content-addressed, not identity-addressed.
	r := base
	r.System = sim.DefaultConfig()
	if k := s.Key(r); k != baseKey {
		t.Errorf("fresh but identical config changed key: %s vs %s", k, baseKey)
	}

	// Salt: a different simulator version makes every key miss.
	salted, err := OpenSalted(s.Dir(), "sim-stats-v999")
	if err != nil {
		t.Fatal(err)
	}
	if k := salted.Key(base); k == baseKey {
		t.Error("version salt did not change key")
	}
}

// TestSaltInvalidation: entries written under one simulator version
// are invisible under another, and reappear under the original.
func TestSaltInvalidation(t *testing.T) {
	dir := t.TempDir()
	req := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantPlain,
	}
	res, err := core.Run(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		t.Fatal(err)
	}

	v1, err := OpenSalted(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.Put(req, res); err != nil {
		t.Fatal(err)
	}
	if _, ok := v1.Get(req); !ok {
		t.Fatal("v1 store misses its own entry")
	}

	v2, err := OpenSalted(dir, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.Get(req); ok {
		t.Fatal("bumped salt still hits stale entry")
	}

	back, err := OpenSalted(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Get(req); !ok {
		t.Fatal("original salt lost its entry")
	}
}

// TestCachedResultFields: a round-tripped result reproduces every
// emitted statistic of the original, field by field.
func TestCachedResultFields(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantAuto,
		Options:  core.Options{C: 16},
	}
	res, err := core.Run(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(req, res); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(req)
	if !ok {
		t.Fatal("put entry misses")
	}
	// Pass is documented as uncached; everything else must match.
	want := *res
	want.Pass = nil
	if *got != want {
		t.Errorf("cached result differs:\ngot  %+v\nwant %+v", *got, want)
	}
}

// TestCorruptObjectIsMiss: an object file that does not decode, or a
// well-formed object under the wrong key (a misplaced or mislabelled
// file), degrades to a miss and is repaired by the next Put.
func TestCorruptObjectIsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantPlain,
	}
	res, err := core.Run(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	other := req
	other.Variant = core.VariantAuto
	if err := s.Put(other, &core.Result{Snapshot: core.Snapshot{Checksum: 1}}); err != nil {
		t.Fatal(err)
	}
	mislabelled, err := os.ReadFile(s.objectPath(s.Key(other)))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"not json", []byte("{not json")},
		{"wrong key", mislabelled},
	} {
		if err := s.Put(req, res); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.objectPath(s.Key(req)), tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(req); ok {
			t.Fatalf("%s: corrupt object served as a hit: %+v", tc.name, got)
		}
		if err := s.Put(req, res); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(req)
		if !ok {
			t.Fatalf("%s: re-put did not repair corrupt object", tc.name)
		}
		if got.Snapshot != res.Snapshot {
			t.Fatalf("%s: repaired object serves %+v, want %+v", tc.name, got.Snapshot, res.Snapshot)
		}
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

// TestSharedDirectory: two Store handles on one directory — two
// coordinators pointed at one -store — run overlapping grids at the
// same time. Racing writers of a shared cell store the same bits, so
// both answers match an uncached run, a second pass through either
// handle is served entirely from the directory, and no temp file of an
// atomic write is left behind.
func TestSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	tiny := workloads.Tiny()
	a := tinyGrid()
	a.Execs = []core.ExecMode{core.ExecReplay} // exercise traces/ too
	b := tinyGrid()
	b.Workloads = []*workloads.Workload{tiny[1], tiny[2]}

	var want [2][]byte
	for i, grid := range []sweep.Grid{a, b} {
		plain, err := grid.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = emit(t, plain)
	}

	var stores [2]*Store
	for i := range stores {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	grids := [2]sweep.Grid{a, b}
	var got [2][]byte
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = emit(t, runGrid(t, grids[i], stores[i]))
		}()
	}
	wg.Wait()
	for i := range stores {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("grid %d through a shared store differs from an uncached run:\n%s\nvs\n%s", i, got[i], want[i])
		}
	}

	if st := stores[0].Stats(); st.TracePuts == 0 {
		t.Fatal("replay grid stored no trace; traces/ goes unchecked")
	}

	// Each handle now finds every cell of either grid in the directory.
	for i, st := range stores {
		for j, grid := range grids {
			before := st.Stats()
			if out := emit(t, runGrid(t, grid, st)); !bytes.Equal(out, want[j]) {
				t.Fatalf("handle %d, grid %d: warm pass differs from an uncached run", i, j)
			}
			after := st.Stats()
			cells := int64(len(grid.Expand()))
			if hits, puts := after.Hits-before.Hits, after.Puts-before.Puts; hits != cells || puts != 0 {
				t.Errorf("handle %d warm pass: %d hits / %d puts, want %d / 0", i, hits, puts, cells)
			}
		}
	}

	for _, sub := range []string{"objects", "traces"} {
		filepath.WalkDir(filepath.Join(dir, sub), func(path string, d fs.DirEntry, err error) error {
			if err == nil && strings.Contains(d.Name(), ".tmp") {
				t.Errorf("temp file left behind: %s", path)
			}
			return nil
		})
	}
}

// TestResumedSweep: interrupting a grid mid-way (simulated by caching
// only a prefix of the cells) still yields a full, bit-identical
// result set on the next run, computing only the missing cells.
func TestResumedSweep(t *testing.T) {
	dir := t.TempDir()
	grid := tinyGrid()
	reqs := grid.Expand()

	plain, err := grid.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	want := emit(t, plain)

	// "Interrupt" after half the cells: persist only that prefix.
	half, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(reqs)/2; i++ {
		if err := half.Put(reqs[i], plain.Outcomes[i].Result); err != nil {
			t.Fatal(err)
		}
	}

	resumed, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	set, err := grid.RunWith(sweep.Runner{Jobs: 2, Cache: resumed})
	if err != nil {
		t.Fatal(err)
	}
	if got := emit(t, set); !bytes.Equal(got, want) {
		t.Fatal("resumed sweep differs from uninterrupted run")
	}
	st := resumed.Stats()
	if st.Hits != int64(len(reqs)/2) || st.Puts != int64(len(reqs)-len(reqs)/2) {
		t.Errorf("resume stats = %+v, want %d hits and %d puts", st, len(reqs)/2, len(reqs)-len(reqs)/2)
	}
}
