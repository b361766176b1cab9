package interp

import (
	"runtime"
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// recordKernel runs the kernel once on a recorder and returns the
// sealed trace plus the recorder's (functional) stats.
func recordKernel(t *testing.T, src, fn string, n int64) (*trace.Trace, Stats) {
	t.Helper()
	w := trace.NewWriter()
	mach := NewRecorder(ir.MustParse(src), w)
	sum, err := mach.Run(fn, n)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	st := mach.Stats()
	oc := make([]uint64, ir.NumOps)
	copy(oc, st.OpCounts[:])
	return w.Close(trace.Meta{Workload: fn}, trace.Summary{
		Executed: st.Executed, OpCounts: oc,
		Loads: st.Loads, Stores: st.Stores, Prefetches: st.Prefetches,
		Checksum: sum,
	}), st
}

// hierSnapshot flattens the timing-side counters replay must reproduce.
type hierSnapshot struct {
	Stats
	L1Hits, L1Misses, DRAM, SWPF, HWPF, Walks uint64
	StallCycles                               float64
}

func snapshot(st Stats, c sim.CoreModel) hierSnapshot {
	h := c.Hierarchy()
	l1 := h.Caches()[0]
	return hierSnapshot{
		Stats:  st,
		L1Hits: l1.Hits, L1Misses: l1.Misses,
		DRAM: h.DRAMAccesses, SWPF: h.SWPrefetches, HWPF: h.HWPrefetches,
		Walks: h.TLBStats().Walks, StallCycles: h.LoadStallCycles,
	}
}

// replay decodes the trace and retimes it on c.
func replay(t *testing.T, tr *trace.Trace, c sim.CoreModel) Stats {
	t.Helper()
	im, err := NewImage(tr)
	if err != nil {
		t.Fatalf("image: %v", err)
	}
	st, err := im.Replay(c)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return st
}

// directRun interprets the kernel on cfg without recording.
func directRun(t *testing.T, src, fn string, cfg *sim.Config, n int64) hierSnapshot {
	t.Helper()
	mach := New(ir.MustParse(src), cfg)
	if _, err := mach.Run(fn, n); err != nil {
		t.Fatalf("direct run: %v", err)
	}
	return snapshot(mach.Stats(), mach.Core)
}

// replayConfigs covers the behaviours replay must reproduce exactly:
// out-of-order and in-order cores (stall-on-use consumes the replayed
// dependency times), mul/div latency resolution, and a value-
// speculating hardware prefetcher (imp) exercising the memory replica.
func replayConfigs() []*sim.Config {
	ooo := sim.DefaultConfig()

	inorder := sim.DefaultConfig()
	inorder.Name = "generic-inorder"
	inorder.OutOfOrder = false
	inorder.IssueWidth = 2
	inorder.MulLatency = 5
	inorder.DivLatency = 31

	imp := sim.DefaultConfig()
	imp.Name = "generic-imp"
	imp.HWPrefetcher = "imp"

	return []*sim.Config{ooo, inorder, imp}
}

// TestReplayMatchesDirect is the core property of the record/replay
// split: a trace recorded once replays on every configuration with
// statistics identical to a direct interpretation there — timing
// counters included, to the last bit.
func TestReplayMatchesDirect(t *testing.T) {
	const n = 1 << 10
	for _, src := range []struct{ name, src, fn string }{
		{"indirect", benchIndirectSrc, "kernel"},
		{"arith", benchArithSrc, "spin"},
	} {
		tr, _ := recordKernel(t, src.src, src.fn, n)
		for _, cfg := range replayConfigs() {
			want := directRun(t, src.src, src.fn, cfg, n)
			c := sim.NewCore(cfg)
			if got := snapshot(replay(t, tr, c), c); got != want {
				t.Errorf("%s on %s:\n got %+v\nwant %+v", src.name, cfg.Name, got, want)
			}
		}
	}
}

// TestRecorderMakesNoCoreCalls: a recorder has no core to call (any
// core call would panic on the nil Core), so its stats report zero
// cycles and zero instructions while the functional counters and the
// trace carry the run.
func TestRecorderMakesNoCoreCalls(t *testing.T) {
	tr, st := recordKernel(t, benchIndirectSrc, "kernel", 1<<10)
	if st.Cycles != 0 || st.Instructions != 0 {
		t.Errorf("recorder timed the run: %v cycles, %d instructions", st.Cycles, st.Instructions)
	}
	if st.Executed == 0 || st.Loads == 0 || tr.NumEvents == 0 {
		t.Errorf("recorder ran nothing: %+v, %d events", st, tr.NumEvents)
	}
}

// TestRecordMachineIndependence pins the trace's defining property:
// the recorded bytes depend on the kernel alone. A recorder has no
// machine to leak, so what is left to check is that recording is
// deterministic.
func TestRecordMachineIndependence(t *testing.T) {
	a, _ := recordKernel(t, benchIndirectSrc, "kernel", 1<<10)
	b, _ := recordKernel(t, benchIndirectSrc, "kernel", 1<<10)
	if !trace.Equal(a, b) {
		t.Error("two recordings of the same kernel differ")
	}
}

// TestReplaySerializedRoundTrip: replaying a decoded serialization
// matches replaying the in-memory trace.
func TestReplaySerializedRoundTrip(t *testing.T) {
	cfg := sim.DefaultConfig()
	tr, _ := recordKernel(t, benchIndirectSrc, "kernel", 1<<10)
	decoded, err := trace.Decode(tr.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	c1, c2 := sim.NewCore(cfg), sim.NewCore(cfg)
	if snapshot(replay(t, tr, c1), c1) != snapshot(replay(t, decoded, c2), c2) {
		t.Error("serialized replay differs from in-memory replay")
	}
}

// TestRunsCounter: the interp-invocation counter observes Run calls.
func TestRunsCounter(t *testing.T) {
	before := Runs()
	mach := New(ir.MustParse(benchArithSrc), sim.DefaultConfig())
	if _, err := mach.Run("spin", 8); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := Runs() - before; got != 1 {
		t.Errorf("Runs() advanced by %d, want 1", got)
	}
}

// fixedFootprintSrc walks a 1024-element array n times over: its
// simulated memory, its frame and its SSA slots stay the same size
// however long it runs.
const fixedFootprintSrc = `module bounded
func kernel(%n: i64) -> i64 {
entry:
  %a = alloc 1024, 8
  br loop
loop:
  %i = phi i64 [entry: 0, loop: %i2]
  %acc = phi i64 [entry: 0, loop: %acc2]
  %k = and %i, 1023
  %p = gep %a, %k, 8
  %v = load i64, %p
  %acc2 = add %acc, %v
  store i64, %p, %i
  %i2 = add %i, 1
  %c = cmp lt %i2, %n
  cbr %c, loop, done
done:
  ret %acc2
}
`

// TestTimingHeapBoundedByFootprint: a timing machine keeps one handle
// per SSA slot, so a direct run allocates the same heap at 10^4 and at
// 10^6 iterations of a fixed-footprint kernel. Timing through a
// per-trace-value readiness array would grow with the run (six values
// per iteration, about 48 MB more here) and fail.
func TestTimingHeapBoundedByFootprint(t *testing.T) {
	heap := func(n int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mach := New(ir.MustParse(fixedFootprintSrc), sim.DefaultConfig())
		if _, err := mach.Run("kernel", n); err != nil {
			t.Fatalf("run %d: %v", n, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := heap(1e4), heap(1e6)
	t.Logf("heap allocated: %d B at 10^4 iterations, %d B at 10^6", small, large)
	if large > small+small/4 {
		t.Errorf("heap grows with run length: %d B at 10^4 iterations, %d B at 10^6", small, large)
	}
}

// TestReplayHeapBoundedByFootprint: replay keeps one readiness time per
// live value, so replaying a fixed-footprint kernel allocates the same
// heap at 10^4 and at 10^6 iterations. A per-trace-value readiness
// array grows 8 B per value (about 48 MB more here) and fails. The
// 10^6-iteration trace and image take about 400 MB to build, so -short
// compares against 10^5 iterations, where such an array still adds
// about 5 MB.
func TestReplayHeapBoundedByFootprint(t *testing.T) {
	cfg := sim.DefaultConfig()
	heap := func(n int64) uint64 {
		tr, _ := recordKernel(t, fixedFootprintSrc, "kernel", n)
		im, err := NewImage(tr)
		if err != nil {
			t.Fatalf("image %d: %v", n, err)
		}
		c := sim.NewCore(cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := im.Replay(c); err != nil {
			t.Fatalf("replay %d: %v", n, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	long := int64(1e6)
	if testing.Short() {
		long = 1e5
	}
	small, large := heap(1e4), heap(long)
	t.Logf("replay heap allocated: %d B at 10^4 iterations, %d B at %d", small, large, long)
	if large > small+small/4 {
		t.Errorf("replay heap grows with run length: %d B at 10^4 iterations, %d B at %d", small, large, long)
	}
}
