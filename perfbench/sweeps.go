package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/sweep"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// A sweep job is one sweep.Runner.Execute call: what a user waits on
// when asking for one slice of a figure.
type sweepJob struct {
	name string
	reqs []sweep.Request
}

// syntheticKernels is how many generated kernels paper-direct adds to
// the quick paper suite.
const syntheticKernels = 8

// paperVariants are the figure-4 variants paper-direct runs.
var paperVariants = []core.Variant{core.VariantPlain, core.VariantAuto, core.VariantManual}

// runPaperDirect is the quick figure-4 sweep: the quick paper suite
// plus seed-drawn generated kernels, on the four machines with their
// default hwpf and core, for plain, auto and manual, executed directly
// with no store. One job is one (workload, variant) slice across the
// machines; the generated kernels share one job per variant.
func runPaperDirect(cfg *config, res *result) error {
	build := func() []sweepJob {
		quick := workloads.Quick()
		gen := workloads.Synthetic(cfg.seed, syntheticKernels)
		var jobs []sweepJob
		for _, w := range quick {
			for _, v := range paperVariants {
				g := sweep.Grid{Workloads: []*workloads.Workload{w}, Systems: uarch.All(), Variants: []core.Variant{v}}
				jobs = append(jobs, sweepJob{w.Name + "/" + string(v), g.Expand()})
			}
		}
		for _, v := range paperVariants {
			g := sweep.Grid{Workloads: gen, Systems: uarch.All(), Variants: []core.Variant{v}}
			jobs = append(jobs, sweepJob{"GEN/" + string(v), g.Expand()})
		}
		return jobs
	}
	return runSweep(cfg, res, build)
}

// retimeWorkloads are the quick paper workloads retime-fanout records.
// They are fixed rather than drawn by the seed: a replay group of CG
// or HJ-8 costs 5-25x one of these, so a drawn subset would swing every
// throughput metric by multiples from seed to seed.
var retimeWorkloads = []string{"IS", "RA", "HJ-2", "G500-s11"}

// retimeCs are the look-ahead constants the seed draws from, one per
// workload: they change every auto kernel and so every statistic, while
// the work per cell stays about the same.
var retimeCs = []int64{16, 24, 32, 48, 64, 96, 128}

// runRetimeFanout records each (workload, variant) group once and
// replays it on 4 machines x 5 hwpf x 3 cores = 60 cells, with no store,
// so every group starts cold. One job is one group.
func runRetimeFanout(cfg *config, res *result) error {
	rng := stream(cfg.seed, "retime-fanout/c")
	cs := make([]int64, len(retimeWorkloads))
	for i := range cs {
		cs[i] = retimeCs[rng.intn(len(retimeCs))]
	}
	order := stream(cfg.seed, "retime-fanout/order").next()
	res.note("retime-fanout: workloads %v with c %v", retimeWorkloads, cs)
	build := func() []sweepJob {
		pool := map[string]*workloads.Workload{}
		for _, w := range workloads.Quick() {
			pool[w.Name] = w
		}
		var jobs []sweepJob
		for i, name := range retimeWorkloads {
			for _, v := range []core.Variant{core.VariantPlain, core.VariantAuto} {
				g := sweep.Grid{
					Workloads:     []*workloads.Workload{pool[name]},
					Systems:       uarch.All(),
					HWPrefetchers: []string{"none", "stride", "nextline", "ghb", "imp"},
					Cores:         []string{"interval", "ooo", "inorder"},
					Variants:      []core.Variant{v},
					Options:       core.Options{C: cs[i]},
					Execs:         []core.ExecMode{core.ExecReplay},
				}
				jobs = append(jobs, sweepJob{name + "/" + string(v), g.Expand()})
			}
		}
		// Rotate the job order by the seed, so no group always runs
		// first on a cold process.
		k := int(order % uint64(len(jobs)))
		return append(jobs[k:], jobs[:k]...)
	}
	return runSweep(cfg, res, build)
}

// loopStats is what one measurement window observed.
type loopStats struct {
	cells, failed int
	elapsed       time.Duration
	jobMs         []float64
	// Per complete pass over the jobs: cells and simulated (executed)
	// instructions per second.
	passCellsPerSec, passMinstrPerSec []float64
	// passRSS is the process's peak resident set during each pass, in
	// MiB (the peak is reset when a pass starts).
	passRSS []float64
	// pass holds the outcomes of the first full pass over the jobs, in
	// job order; later passes are compared with it record by record.
	pass []sweep.Outcome
}

// measure runs whole passes over the jobs on one sweep.Runner until
// the window has passed. Rates are taken per pass, so every figure
// covers the same mix of cheap and costly jobs.
func measure(cfg *config, jobs []sweepJob, window time.Duration, tr *tracer, res *result) loopStats {
	var l loopStats
	runner := sweep.Runner{Jobs: cfg.jobs}
	first := make([][]sweep.Record, len(jobs))
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < window; pass++ {
		if time.Now().After(cfg.deadline().Add(-60 * time.Second)) {
			res.problem("run too slow: stopped after %d passes", pass)
			break
		}
		resetPeakRSS("self")
		passStart := time.Now()
		cells := 0
		var executed uint64
		for j, job := range jobs {
			id := tr.start("sweep.execute", fmt.Sprintf("pass-%d-job-%d", pass, j), 0)
			t0 := time.Now()
			set, _ := runner.Execute(job.reqs) // per-cell errors are counted below
			l.jobMs = append(l.jobMs, float64(time.Since(t0).Nanoseconds())/1e6)
			tr.end(id)
			recs := set.Records()
			for i, o := range set.Outcomes {
				cells++
				if o.Err != nil {
					l.failed++
					res.problem("%s: %v", job.name, o.Err)
					continue
				}
				executed += o.Result.Stats.Executed
				if pass > 0 && recs[i] != first[j][i] {
					l.failed++
					res.problem("%s cell %d: pass %d differs from pass 1", job.name, i, pass+1)
				}
			}
			if pass == 0 {
				first[j] = recs
				l.pass = append(l.pass, set.Outcomes...)
			}
		}
		secs := time.Since(passStart).Seconds()
		l.cells += cells
		l.passCellsPerSec = append(l.passCellsPerSec, float64(cells)/secs)
		l.passMinstrPerSec = append(l.passMinstrPerSec, float64(executed)/1e6/secs)
		if rss, err := peakRSSMiB("self"); err == nil {
			l.passRSS = append(l.passRSS, rss)
		} else {
			res.problem("reading peak RSS: %v", err)
		}
	}
	l.elapsed = time.Since(start)
	return l
}

func countCells(jobs []sweepJob) int {
	n := 0
	for _, j := range jobs {
		n += len(j.reqs)
	}
	return n
}

// digest is the SHA-256 of a result set's JSON records: it pins every
// simulated statistic of the pass.
func digest(outcomes []sweep.Outcome) string {
	h := sha256.New()
	set := &sweep.ResultSet{Outcomes: outcomes}
	set.WriteJSON(h) // hash.Hash writes never fail
	return hex.EncodeToString(h.Sum(nil))
}

// runSweep is the shared driver of the two sweep workloads: set-up
// three times (median is setup_s), measure, check, report.
func runSweep(cfg *config, res *result, build func() []sweepJob) error {
	tr := newTracer(cfg.trace)
	var jobs []sweepJob
	var setups []float64
	for i := 0; i < 3; i++ {
		id := tr.start("workloads.pool_s", "setup-"+strconv.Itoa(i), 0)
		t0 := time.Now()
		jobs = build()
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(id)
	}
	window := time.Duration(cfg.seconds * float64(time.Second))

	var l, traced loopStats
	var profiles map[string][]byte
	if !cfg.trace {
		l = measure(cfg, jobs, window, nil, res)
	} else {
		l = measure(cfg, jobs, window/2, nil, res)
		stop, err := startCPUProfile()
		if err != nil {
			return err
		}
		traced = measure(cfg, jobs, window/2, tr, res)
		prof, err := stop()
		if err != nil {
			return err
		}
		profiles = map[string][]byte{"": prof}
	}
	res.attempted, res.failed = l.cells+traced.cells, l.failed+traced.failed

	sum := digest(l.pass)
	res.note("digest %s seed=%d sha256=%s", cfg.workload, cfg.seed, sum)
	checkDigest(cfg, res, sum)
	if cfg.trace {
		if t := digest(traced.pass); t != sum {
			res.problem("traced digest %s differs from untraced %s", t, sum)
		}
	}

	chk := crossCheck(cfg, jobs, l.pass, tr, res)

	if !cfg.trace {
		res.e2e("setup_s", median(setups), "s")
		res.e2e("cells_per_s", median(l.passCellsPerSec), "cells/s")
		res.e2e("sim_minstr_per_s", median(l.passMinstrPerSec), "Minstr/s")
		res.e2e("job_ms_p50", quantile(l.jobMs, 0.5), "ms")
		res.e2e("job_ms_p90", quantile(l.jobMs, 0.9), "ms")
		res.e2e("peak_rss_mb", median(l.passRSS), "MiB")
		res.note("jobs=%d cells=%d window=%.3fs job_ms_p90 has %d jobs beyond it; cells/s per pass %.1f",
			len(l.jobMs), l.cells, l.elapsed.Seconds(), len(l.jobMs)/10, l.passCellsPerSec)
		return nil
	}

	res.layer("workloads.pool_s", median(tr.durations("workloads.pool_s"))/1e3)
	for _, name := range []string{"core.run_ms", "core.record_ms", "interp.new_image_ms", "core.replay_ms"} {
		res.layer(name, median(tr.durations(name)))
	}
	reportModules(res, profiles)
	results := make([]*core.Result, len(l.pass))
	for i := range l.pass {
		results[i] = l.pass[i].Result
	}
	reportCounts(res, (&sweep.ResultSet{Outcomes: l.pass}).Records(), executedOf(results), append(results, chk.results...))
	res.layer("trace.bytes_per_instr", chk.traceBytesPerInstr())
	res.layer("sweep.cells_per_group", float64(len(l.pass))/float64(len(jobs)))
	reportOverhead(res, median(l.passCellsPerSec), median(traced.passCellsPerSec))
	return writeSpans(cfg, tr)
}

// reportOverhead states the tracing overhead as traced over untraced
// throughput, with both values.
func reportOverhead(res *result, untraced, traced float64) {
	res.layer("tracing.cells_per_s_untraced", untraced)
	res.layer("tracing.cells_per_s_traced", traced)
	res.layer("tracing.overhead_ratio", traced/untraced)
}

func writeSpans(cfg *config, tr *tracer) error {
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	header := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds}
	if err := tr.write(path, header); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Println("spans written to", path)
	return nil
}

func executedOf(rs []*core.Result) uint64 {
	var n uint64
	for _, r := range rs {
		if r != nil {
			n += r.Stats.Executed
		}
	}
	return n
}

// reportCounts adds the modelled-design counts: they change only when
// the model does, and explain sim.cycles rather than host time.
// withPass are results that may carry a prefetch pass report.
func reportCounts(res *result, recs []sweep.Record, instrs uint64, withPass []*core.Result) {
	var cycles, stall, late float64
	var dram, walks, swpf, hwpf, dropped, l1h, l1m, unused uint64
	for _, r := range recs {
		cycles += r.Cycles
		stall += r.LoadStallCycles
		late += r.PrefetchLateCycles
		dram += r.DRAMAccesses
		walks += r.TLBWalks
		swpf += r.SWPrefetches
		hwpf += r.HWPrefetches
		dropped += r.HWPrefetchDropped
		l1h += r.L1Hits
		l1m += r.L1Misses
		unused += r.PrefetchedUnusedL1
	}
	emitted := 0
	for _, r := range withPass {
		if r != nil && r.Pass != nil {
			emitted += len(r.Pass.Emitted)
		}
	}
	res.layer("interp.instrs", float64(instrs))
	res.layer("sim.cycles", cycles)
	res.layer("sim.dram_accesses", float64(dram))
	res.layer("sim.tlb_walks", float64(walks))
	res.layer("sim.load_stall_cycles", stall)
	res.layer("sim.prefetch_late_cycles", late)
	res.layer("swpf.issued", float64(swpf))
	res.layer("hwpf.issued", float64(hwpf))
	res.layer("prefetch.emitted", float64(emitted))
	res.layer("sim.l1_miss_ratio", ratio(l1m, l1h+l1m))
	res.layer("sim.prefetch_unused_ratio", ratio(unused, swpf+hwpf))
	res.layer("hwpf.drop_ratio", ratio(dropped, hwpf+dropped))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkDigest compares the pass digest with the one recorded for this
// workload and seed. Seeds without a recorded digest rely on the
// cross-check alone, and say so.
func checkDigest(cfg *config, res *result, sum string) {
	data, err := os.ReadFile(cfg.digests)
	if err != nil {
		res.problem("reading recorded digests: %v", err)
		return
	}
	var recorded map[string]map[string]string
	if err := json.Unmarshal(data, &recorded); err != nil {
		res.problem("parsing %s: %v", cfg.digests, err)
		return
	}
	want, ok := recorded[cfg.workload][strconv.FormatUint(cfg.seed, 10)]
	switch {
	case !ok:
		res.note("digest: no recorded digest for seed %d; relying on the cross-check", cfg.seed)
	case want != sum:
		res.problem("digest %s, recorded %s for seed %d", sum, want, cfg.seed)
	default:
		res.note("digest: matches the recorded digest for seed %d", cfg.seed)
	}
}

// checkResult is what the cross-check computed.
type checkResult struct {
	results                []*core.Result
	traceBytes, traceInstr uint64
}

func (c checkResult) traceBytesPerInstr() float64 { return ratio(c.traceBytes, c.traceInstr) }

// crossCheck re-executes a seed-chosen sample of cells through the
// program's other entry points and compares each record with the
// measured pass: two groups, each recorded once (core.Record), decoded
// (interp.NewImage) and replayed (core.ReplayImage) on up to four of
// its cells, and up to four cells run directly (core.Run). Direct and
// replayed statistics are byte-identical by design, so this checks
// whichever path the workload measured against the other.
func crossCheck(cfg *config, jobs []sweepJob, pass []sweep.Outcome, tr *tracer, res *result) checkResult {
	var out checkResult
	if len(pass) != countCells(jobs) {
		return out
	}
	offsets := make([]int, len(jobs))
	for j, off := 0, 0; j < len(jobs); j++ {
		offsets[j], off = off, off+len(jobs[j].reqs)
	}
	rng := stream(cfg.seed, cfg.workload+"/check")
	cx := core.NewContext()
	compare := func(what string, got *core.Result, idx int) {
		want := pass[idx]
		g := (&sweep.ResultSet{Outcomes: []sweep.Outcome{{Request: want.Request, Result: got}}}).Records()[0]
		w := (&sweep.ResultSet{Outcomes: []sweep.Outcome{want}}).Records()[0]
		if g != w {
			res.problem("cross-check %s %s/%s/%s: %+v, measured %+v", what, w.Workload, w.System, w.Variant, g, w)
		}
	}
	for k := 0; k < 2; k++ {
		j := rng.intn(len(jobs))
		reqs := jobs[j].reqs
		req := "check-" + strconv.Itoa(k)
		parent := tr.start("check", req, 0)
		// Replay path: record on the group's first cell, replay a sample.
		id := tr.start("core.record_ms", req, parent)
		t, rec, err := cx.Record(reqs[0].Workload, reqs[0].System, reqs[0].Variant, reqs[0].Options)
		tr.end(id)
		if err != nil {
			res.problem("cross-check record %s: %v", jobs[j].name, err)
			tr.end(parent)
			continue
		}
		out.results = append(out.results, rec)
		out.traceBytes += uint64(t.EncodedEventBytes())
		out.traceInstr += t.Summary.Executed
		compare("record", rec, offsets[j])
		id = tr.start("interp.new_image_ms", req, parent)
		im, err := interp.NewImage(t)
		tr.end(id)
		if err != nil {
			res.problem("cross-check image %s: %v", jobs[j].name, err)
			tr.end(parent)
			continue
		}
		for _, c := range sampleCells(rng, len(reqs), 4) {
			if reqs[c].Workload != reqs[0].Workload || reqs[c].Variant != reqs[0].Variant {
				continue // a job spanning several kernels replays only the first's cells
			}
			id = tr.start("core.replay_ms", req, parent)
			r, err := cx.ReplayImage(im, reqs[c].System)
			tr.end(id)
			if err != nil {
				res.problem("cross-check replay %s: %v", jobs[j].name, err)
				continue
			}
			compare("replay", r, offsets[j]+c)
		}
		// Direct path on a sample of the same job.
		for _, c := range sampleCells(rng, len(reqs), 4) {
			q := reqs[c]
			id = tr.start("core.run_ms", req, parent)
			r, err := cx.Run(q.Workload, q.System, q.Variant, q.Options)
			tr.end(id)
			if err != nil {
				res.problem("cross-check run %s: %v", jobs[j].name, err)
				continue
			}
			out.results = append(out.results, r)
			compare("run", r, offsets[j]+c)
		}
		tr.end(parent)
	}
	return out
}

// sampleCells draws up to k distinct indices below n.
func sampleCells(rng *splitmix, n, k int) []int {
	if k > n {
		k = n
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}
