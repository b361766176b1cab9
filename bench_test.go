// Package repro's top-level benchmarks regenerate every figure of the
// evaluation section of Ainsworth & Jones, "Software Prefetching for
// Indirect Memory Accesses" (CGO 2017), plus ablations of the design
// choices described in docs/experiments.md.
//
//	go test -bench=. -benchmem            # quick-quality figures
//	go test -bench=Fig4 -tags=...         # one figure
//
// Each benchmark runs the experiment once per b.N iteration and
// reports the figure's headline number (a speedup or a percentage) as
// a custom metric, so `go test -bench` output doubles as a results
// table. The full-size tables are produced by cmd/swpfbench; see
// docs/experiments.md.
package repro

import (
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// quality for benchmarks: quick inputs keep `go test -bench=.` in the
// minutes range; cmd/swpfbench regenerates the full-size tables.
const q = bench.Quick

// lastCell parses the numeric value at table position (row, col).
func cell(b *testing.B, t *bench.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

// BenchmarkFig2 regenerates figure 2 (prefetch schemes on IS/Haswell)
// and reports the optimal-scheme speedup.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig2(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, t, 3, 1), "optimal-speedup")
	}
}

func benchFig4(b *testing.B, system string) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig4(q, system)
		if err != nil {
			b.Fatal(err)
		}
		last := len(t.Rows) - 1
		b.ReportMetric(cell(b, t, last, len(t.Rows[last])-2), "auto-geomean")
		b.ReportMetric(cell(b, t, last, len(t.Rows[last])-1), "manual-geomean")
	}
}

// BenchmarkFig4Haswell .. A53 regenerate the four panels of figure 4.
func BenchmarkFig4Haswell(b *testing.B) { benchFig4(b, "Haswell") }

// BenchmarkFig4XeonPhi includes the ICC-generated series (fig. 4d).
func BenchmarkFig4XeonPhi(b *testing.B) { benchFig4(b, "XeonPhi") }

// BenchmarkFig4A57 is the Cortex-A57 panel.
func BenchmarkFig4A57(b *testing.B) { benchFig4(b, "A57") }

// BenchmarkFig4A53 is the Cortex-A53 panel.
func BenchmarkFig4A53(b *testing.B) { benchFig4(b, "A53") }

// BenchmarkFig5 regenerates figure 5 (indirect-only vs indirect+stride).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig5(q)
		if err != nil {
			b.Fatal(err)
		}
		last := len(t.Rows) - 1
		b.ReportMetric(cell(b, t, last, 1), "indirect-only-geomean")
		b.ReportMetric(cell(b, t, last, 2), "with-stride-geomean")
	}
}

func benchFig6(b *testing.B, name string) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig6(q, name)
		if err != nil {
			b.Fatal(err)
		}
		// Report the c=64 column (index 5) of the first system row, the
		// paper's chosen default.
		b.ReportMetric(cell(b, t, 0, 5), "haswell-c64-speedup")
	}
}

// BenchmarkFig6IS .. HJ2 regenerate the look-ahead sweeps of figure 6.
func BenchmarkFig6IS(b *testing.B) { benchFig6(b, "IS") }

// BenchmarkFig6CG sweeps Conjugate Gradient.
func BenchmarkFig6CG(b *testing.B) { benchFig6(b, "CG") }

// BenchmarkFig6RA sweeps RandomAccess.
func BenchmarkFig6RA(b *testing.B) { benchFig6(b, "RA") }

// BenchmarkFig6HJ2 sweeps Hash Join 2EPB.
func BenchmarkFig6HJ2(b *testing.B) { benchFig6(b, "HJ-2") }

// BenchmarkFig7 regenerates figure 7 (HJ-8 stagger depth).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig7(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, t, 0, 3), "haswell-depth3-speedup")
	}
}

// BenchmarkFig8 regenerates figure 8 (instruction overhead, Haswell).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig8(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, t, 0, 1), "is-extra-instr-pct")
	}
}

// BenchmarkFig9 regenerates figure 9 (multicore bandwidth, IS/Haswell).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig9(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, t, 2, 1), "4core-noprefetch-throughput")
		b.ReportMetric(cell(b, t, 2, 2), "4core-prefetch-throughput")
	}
}

// BenchmarkFig10 regenerates figure 10 (page size vs prefetch benefit).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig10(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, t, 0, 1), "is-small-pages-speedup")
		b.ReportMetric(cell(b, t, 0, 2), "is-huge-pages-speedup")
	}
}

// --- Ablations of the pass's design choices (docs/experiments.md) ---

// BenchmarkAblationFlatOffset compares eq. (1) staggered scheduling
// against a flat look-ahead (every chain position at offset c) on the
// deep HJ-8 chain: staggering exists so that each dependent load's
// input was itself prefetched c/t iterations earlier.
func BenchmarkAblationFlatOffset(b *testing.B) {
	w := workloads.HJ(1<<13, 8)
	cfg := uarch.A53()
	for i := 0; i < b.N; i++ {
		base, err := core.Run(w, cfg, core.VariantPlain, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		eq1, err := core.Run(w, cfg, core.VariantAuto, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		flat, err := core.Run(w, cfg, core.VariantAuto, core.Options{FlatOffset: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(core.Speedup(base, eq1), "eq1-speedup")
		b.ReportMetric(core.Speedup(base, flat), "flat-speedup")
	}
}

// BenchmarkAblationClampCost measures the dynamic instruction cost of
// the §4.2 fault-avoidance clamps: the share of the prefetched run's
// instructions spent on min/max clamping.
func BenchmarkAblationClampCost(b *testing.B) {
	w := workloads.IS(1<<13, 1<<16)
	cfg := uarch.Haswell()
	for i := 0; i < b.N; i++ {
		auto, err := core.Run(w, cfg, core.VariantAuto, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		clamps := auto.Stats.OpCounts[ir.OpMin] + auto.Stats.OpCounts[ir.OpMax]
		pct := 100 * float64(clamps) / float64(auto.Stats.Instructions)
		b.ReportMetric(pct, "clamp-instr-pct")
	}
}

// BenchmarkAblationHoist compares the automatic pass with and without
// the §4.6 loop-hoisting extension on HJ-8, whose linked-list walk is
// exactly the inner-loop/non-induction-phi shape hoisting exists for:
// with hoisting on, the pass substitutes the bucket head pointer and
// prefetches the first chain node.
func BenchmarkAblationHoist(b *testing.B) {
	w := workloads.HJ(1<<14, 8)
	cfg := uarch.A53()
	for i := 0; i < b.N; i++ {
		base, err := core.Run(w, cfg, core.VariantPlain, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		with, err := core.Run(w, cfg, core.VariantAuto, core.Options{Hoist: true})
		if err != nil {
			b.Fatal(err)
		}
		without, err := core.Run(w, cfg, core.VariantAuto, core.Options{Hoist: false})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(core.Speedup(base, with), "hoist-speedup")
		b.ReportMetric(core.Speedup(base, without), "no-hoist-speedup")
	}
}

// BenchmarkAblationCleanup measures how much of figure 8's instruction
// overhead ordinary compiler cleanup (fold/CSE/DCE, package opt)
// recovers from the prefetch pass's duplicated address code.
func BenchmarkAblationCleanup(b *testing.B) {
	w := workloads.IS(1<<13, 1<<16)
	cfg := uarch.Haswell()
	for i := 0; i < b.N; i++ {
		base, err := core.Run(w, cfg, core.VariantPlain, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// Raw pass output.
		raw := w.Plain()
		prefetch.Run(raw.Mod, prefetch.DefaultOptions())
		rawInstrs := runInstrs(b, raw, cfg)
		// Cleaned pass output.
		cleaned := w.Plain()
		prefetch.Run(cleaned.Mod, prefetch.DefaultOptions())
		opt.Run(cleaned.Mod)
		cleanInstrs := runInstrs(b, cleaned, cfg)

		baseInstrs := float64(base.Stats.Instructions)
		b.ReportMetric(100*(float64(rawInstrs)-baseInstrs)/baseInstrs, "raw-overhead-pct")
		b.ReportMetric(100*(float64(cleanInstrs)-baseInstrs)/baseInstrs, "cleaned-overhead-pct")
	}
}

func runInstrs(b *testing.B, inst *workloads.Instance, cfg *sim.Config) uint64 {
	b.Helper()
	mach := interp.New(inst.Mod, cfg)
	if err := inst.Run(mach); err != nil {
		b.Fatal(err)
	}
	return mach.Stats().Instructions
}

// BenchmarkPassThroughput measures the compiler pass itself: kernels
// transformed per second.
func BenchmarkPassThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range workloads.Tiny() {
			inst := w.Plain()
			prefetch.Run(inst.Mod, prefetch.DefaultOptions())
		}
	}
}

// BenchmarkSimulatorThroughput measures simulated instructions per
// second of the interpreter + timing model.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w := workloads.IS(1<<14, 1<<16)
	cfg := uarch.Haswell()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(w, cfg, core.VariantPlain, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Stats.Executed
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkAblationLoopSplit compares the clamped pass against the
// loop-splitting extension (prefetch bounds checks hoisted out of the
// loop by peeling the final iterations — the trick §6.1 credits for
// ICC beating the prototype on IS).
func BenchmarkAblationLoopSplit(b *testing.B) {
	w := workloads.IS(1<<14, 1<<17)
	cfg := uarch.A53()
	for i := 0; i < b.N; i++ {
		base, err := core.Run(w, cfg, core.VariantPlain, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		clamped := w.Plain()
		prefetch.Run(clamped.Mod, prefetch.Options{C: 64})
		split := w.Plain()
		prefetch.Run(split.Mod, prefetch.Options{C: 64, SplitLoops: true})
		cc := runCycles(b, clamped, cfg)
		sc := runCycles(b, split, cfg)
		b.ReportMetric(base.Cycles/cc, "clamped-speedup")
		b.ReportMetric(base.Cycles/sc, "split-speedup")
	}
}

func runCycles(b *testing.B, inst *workloads.Instance, cfg *sim.Config) float64 {
	b.Helper()
	mach := interp.New(inst.Mod, cfg)
	if err := inst.Run(mach); err != nil {
		b.Fatal(err)
	}
	return mach.Stats().Cycles
}
