// Command perfbench is the repository's benchmark: one seeded command
// that drives the simulator, the record/replay path or a real swpfd
// fleet through their public entry points and reports host-time
// metrics. It claims no simulated speed-up; model accuracy against the
// paper stays with `swpfbench -exp fig4`.
//
//	python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
//
// run.py builds this program and swpfd from source under .bench_build
// and runs it from the repository root. The workloads (BENCHMARK.json
// says why each was chosen):
//
//   - paper-direct: the quick figure-4 sweep (the quick paper suite plus
//     seed-drawn generated kernels, four machines, plain/auto/manual),
//     direct execution, no store, through sweep.Runner.Execute.
//   - retime-fanout: four quick paper workloads with seed-drawn
//     look-ahead c, plain and auto, each group recorded once and
//     replayed on 60 machine x hwpf x core cells, no store.
//   - fleet-mixed: a real `swpfd` coordinator and one `swpfd -worker`,
//     driven over HTTP by a closed loop of GOMAXPROCS clients.
//
// With --trace 0 it reports the end-to-end metrics: setup_s,
// cells_per_s, sim_minstr_per_s, job_ms_p50, job_ms_p90 and
// peak_rss_mb. fail_ratio is printed as text and carried by the
// attempted/failed counts, since a metric that is 0 on every good run
// cannot be bounded as a share of its median. With --trace 1 it runs
// the window half untraced and half traced (spans kept in memory and
// written to .bench_build/perfbench, a CPU profile attributed to
// layers) and reports the per-layer metrics instead.
//
// Every run checks its outputs. The sweep workloads hash their first
// pass (SHA-256 over ResultSet.WriteJSON), compare the digest with the
// one digests.json records for the seed, compare every later pass with
// the first, and re-execute a seed-chosen sample through the other
// execution path (direct against replay). The fleet re-simulates a
// seed-chosen sample of returned cells in process with core.Run. The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// A change to the simulated model changes the digests. Regenerate them
// by running each sweep workload with --seconds 0.001 for each recorded
// seed and copying the printed sha256 into digests.json.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// maxRunTime bounds a whole invocation; a run that gets near it stops
// its children and fails rather than overrun its caller's limit.
const maxRunTime = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports.
type result struct {
	endToEnd  map[string]metric
	perLayer  map[string]metric
	attempted int
	failed    int
	problems  []string // correctness failures; any one fails the run
	notes     []string // informational lines printed before the result
}

func newResult() *result {
	return &result{endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
}

func (r *result) e2e(name string, v float64, unit string) { r.endToEnd[name] = metric{v, unit} }

// layer records a per-layer metric; its unit comes from layerUnits.
func (r *result) layer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	r.perLayer[name] = metric{v, unit}
}

// layerUnits lists every per-layer metric (BENCHMARK.json's per_layer)
// with its unit. A traced run reports all of them; a layer the workload
// does not pass through reads 0.
var layerUnits = map[string]string{
	"host.ref_ms":                  "ms",
	"workloads.pool_s":             "s",
	"core.run_ms":                  "ms",
	"core.record_ms":               "ms",
	"interp.new_image_ms":          "ms",
	"core.replay_ms":               "ms",
	"swpfd.post_sweep_ms":          "ms",
	"swpfd.events_ms":              "ms",
	"swpfd.results_ms":             "ms",
	"interp.self_s":                "s",
	"sim.self_s":                   "s",
	"hwpf.self_s":                  "s",
	"trace.self_s":                 "s",
	"prefetch.self_s":              "s",
	"ir.self_s":                    "s",
	"sweep.self_s":                 "s",
	"workloads.self_s":             "s",
	"store.self_s":                 "s",
	"fleet.self_s":                 "s",
	"swpfd.self_s":                 "s",
	"json.self_s":                  "s",
	"runtime.gc.self_s":            "s",
	"runtime.sched.self_s":         "s",
	"other.self_s":                 "s",
	"profile.coverage":             "ratio",
	"interp.instrs":                "count",
	"sim.cycles":                   "cycles",
	"sim.dram_accesses":            "count",
	"sim.tlb_walks":                "count",
	"sim.load_stall_cycles":        "cycles",
	"sim.prefetch_late_cycles":     "cycles",
	"swpf.issued":                  "count",
	"hwpf.issued":                  "count",
	"prefetch.emitted":             "count",
	"sim.l1_miss_ratio":            "ratio",
	"sim.prefetch_unused_ratio":    "ratio",
	"hwpf.drop_ratio":              "ratio",
	"trace.bytes_per_instr":        "B/instr",
	"sweep.cells_per_group":        "cells",
	"fleet.leases_per_cell":        "leases/cell",
	"fleet.cell_ms_p50":            "ms",
	"store.hit_ratio":              "ratio",
	"store.puts":                   "count",
	"queue.dedup_hits":             "count",
	"worker.cpu_s":                 "s",
	"tracing.cells_per_s_untraced": "cells/s",
	"tracing.cells_per_s_traced":   "cells/s",
	"tracing.overhead_ratio":       "ratio",
}

// metrics is what a run reports: the end-to-end metrics, or for a
// traced run every per-layer metric, 0 where the workload has no such
// layer.
func (r *result) metrics(traced bool) map[string]metric {
	if !traced {
		return r.endToEnd
	}
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{0, unit}
	}
	for name, m := range r.perLayer {
		out[name] = m
	}
	return out
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	swpfd    string
	outDir   string
	jobs     int // sweep workers, fleet clients and worker pool size
	digests  string
	started  time.Time
}

// deadline is when the whole invocation must have finished its work.
func (c *config) deadline() time.Time { return c.started.Add(maxRunTime) }

var workloadRuns = map[string]func(*config, *result) error{
	"paper-direct":  runPaperDirect,
	"retime-fanout": runRetimeFanout,
	"fleet-mixed":   runFleetMixed,
}

func main() {
	cfg := &config{started: time.Now()}
	var seed uint64
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "paper-direct, retime-fanout or fleet-mixed")
	fs.Uint64Var(&seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	fs.StringVar(&cfg.swpfd, "swpfd", "", "path of the swpfd binary (fleet-mixed)")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for stores, spans and profiles")
	fs.StringVar(&cfg.digests, "digests", "perfbench/digests.json", "recorded result-set digests per workload and seed")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.seed, cfg.trace = seed, traceFlag == 1
	run, ok := workloadRuns[cfg.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --trace 0|1 and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg.jobs = runtime.GOMAXPROCS(0)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	// Children must not outlive the run, whatever ends it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()
	time.AfterFunc(maxRunTime, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", maxRunTime)
		stopAll()
		os.Exit(1)
	})

	res := newResult()
	hostInfo(cfg, res)
	err := run(cfg, res)
	stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	os.Exit(emit(cfg, res))
}

func workloadNames() []string {
	var out []string
	for n := range workloadRuns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// hostInfo prints what is needed to compare numbers across hosts: the
// host, Go version, GOMAXPROCS and the reference kernel's time.
func hostInfo(cfg *config, res *result) {
	host, _ := os.Hostname() // informational only
	ref := refKernelMs()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("host=%s cpu=%q go=%s gomaxprocs=%d numcpu=%d host.ref_ms=%.4f\n",
		host, cpuModel(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), ref)
	res.layer("host.ref_ms", ref)
}

// cpuModel reads the processor name from /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// refSink keeps the reference kernel's result live.
var refSink uint64

// refKernelMs times a fixed pure-Go kernel (an indirect gather over a
// pseudo-random permutation, the access pattern the simulator models)
// and returns the median of five runs in milliseconds. Reporting it
// beside every result lets numbers from two hosts be compared as
// ratios to it.
func refKernelMs() float64 {
	const n = 1 << 20
	idx := make([]uint32, n)
	data := make([]uint64, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range idx {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx[i] = uint32(x % n)
		data[i] = x
	}
	times := make([]float64, 5)
	for r := range times {
		start := time.Now()
		var sum uint64
		for k := 0; k < 4; k++ {
			for i := range idx {
				sum += data[idx[i]] ^ uint64(k)
			}
		}
		refSink += sum
		times[r] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return median(times)
}

// emit prints every metric with its unit, then the result line, and
// returns the exit code.
func emit(cfg *config, res *result) int {
	for _, n := range res.notes {
		fmt.Println(n)
	}
	failRatio := 0.0
	if res.attempted > 0 {
		failRatio = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("fail_ratio %g failed/attempted (%d/%d)\n", failRatio, res.failed, res.attempted)
	metrics := res.metrics(cfg.trace)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, p := range res.problems {
		fmt.Println("FAIL:", p)
	}
	correct := len(res.problems) == 0 && res.failed == 0 && res.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// median returns the middle value (mean of the two middle values for
// an even count) without reordering xs; 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMiB returns VmHWM of a process ("self" or a pid) in MiB.
func peakRSSMiB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// resetPeakRSS restarts a process's VmHWM from its current resident
// set, so the next read gives the peak since now. Best-effort: where
// the kernel does not support it the peak stays the lifetime peak.
func resetPeakRSS(pid string) {
	_ = os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0) // see above
}

// splitmix is the seed expander every workload draws its choices from.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// stream returns an independent generator for one use of the seed, so
// adding a draw to one use never shifts another's.
func stream(seed uint64, use string) *splitmix {
	h := uint64(14695981039346656037)
	for i := 0; i < len(use); i++ {
		h = (h ^ uint64(use[i])) * 1099511628211
	}
	return &splitmix{s: seed ^ h}
}
