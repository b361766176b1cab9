package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// Fleet job generator settings. Jobs are small grids of tiny-pool
// cells; a share of them repeats a recent job, so the queue's dedupe
// and the store's reads both see traffic, and a fixed share of all
// requested cells is stored before the run starts.
const (
	fleetJobsPerSecond = 45   // job-list sizing: about twice what the fleet completes
	fleetRepeatShare   = 0.15 // jobs that repeat one of the last 8 jobs
	fleetPrestoreShare = 0.10 // requested cells stored during set-up
	fleetJobTimeout    = 30 * time.Second
	fleetCheckCells    = 40 // cells re-simulated in process
)

var (
	fleetVariants = []string{"auto", "manual", "icc", "indirect-only"}
	fleetHWPF     = []string{"default", "none", "stride", "nextline", "ghb", "imp"}
	fleetCores    = []string{"default", "interval", "ooo", "inorder"}
	fleetSystems  = []string{"Haswell", "XeonPhi", "A57", "A53"}
)

// fleetJobs draws n job specs from the seed: three tiny workloads, two
// machines, plain plus one prefetching variant, one hwpf, one core and
// one look-ahead c — 12 cells each. c ranges over 16..256 so that the
// space of cells (over 700k) dwarfs what a run requests: cells then
// recur only through the repeated jobs and the pre-stored share, and
// the store's hit ratio stays flat through the run instead of climbing
// as a small space fills.
func fleetJobs(seed uint64, n int) ([]sweep.Spec, error) {
	pool, err := workloads.PoolByQuality("tiny")
	if err != nil {
		return nil, err
	}
	rng := stream(seed, "fleet-mixed/jobs")
	pick := func(names []string, k int) string {
		idx := sampleCells(rng, len(names), k)
		out := make([]string, k)
		for i, j := range idx {
			out[i] = names[j]
		}
		return strings.Join(out, ",")
	}
	var wnames []string
	for _, w := range pool {
		wnames = append(wnames, w.Name)
	}
	specs := make([]sweep.Spec, 0, n)
	for i := 0; i < n; i++ {
		if i >= 8 && float64(rng.next()%1000) < fleetRepeatShare*1000 {
			specs = append(specs, specs[i-1-rng.intn(8)])
			continue
		}
		specs = append(specs, sweep.Spec{
			Quality:   "tiny",
			Workloads: pick(wnames, 3),
			Systems:   pick(fleetSystems, 2),
			Variants:  "plain," + fleetVariants[rng.intn(len(fleetVariants))],
			HWPF:      fleetHWPF[rng.intn(len(fleetHWPF))],
			Core:      fleetCores[rng.intn(len(fleetCores))],
			C:         16 + int64(rng.intn(241)),
		})
	}
	return specs, nil
}

// prestoreRequests is the fixed share of the cells the jobs request
// that set-up stores: each cell is chosen by a seeded draw.
func prestoreRequests(seed uint64, specs []sweep.Spec) ([]sweep.Request, error) {
	rng := stream(seed, "fleet-mixed/prestore")
	var out []sweep.Request
	for _, sp := range specs {
		g, err := sp.ToGrid()
		if err != nil {
			return nil, err
		}
		for _, r := range g.Expand() {
			if float64(rng.next()%1000) < fleetPrestoreShare*1000 {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// proc is one child process with its standard error drained.
type proc struct {
	cmd   *exec.Cmd
	lines chan string
	done  chan struct{}
	mu    sync.Mutex
	tail  []string
}

var (
	liveMu    sync.Mutex
	liveProcs = map[*proc]bool{}
)

// stopAll kills every child still running; the watchdog and the
// signal handler call it before exiting.
func stopAll() {
	liveMu.Lock()
	ps := make([]*proc, 0, len(liveProcs))
	for p := range liveProcs {
		ps = append(ps, p)
	}
	liveMu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

func startProc(bin string, args ...string) (*proc, error) {
	p := &proc{cmd: exec.Command(bin, args...), lines: make(chan string, 16), done: make(chan struct{})}
	p.cmd.Env = append(os.Environ(), "SWPF_STORE=", "SWPF_PEER=")
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	liveMu.Lock()
	liveProcs[p] = true
	liveMu.Unlock()
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
			select {
			case p.lines <- line:
			default: // nobody is waiting for a line; drop it
			}
		}
	}()
	return p, nil
}

// waitFor returns the first standard-error line containing substr.
func (p *proc) waitFor(substr string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line := <-p.lines:
			if strings.Contains(line, substr) {
				return line, nil
			}
		case <-p.done:
			return "", fmt.Errorf("%s exited before printing %q: %s", p.cmd.Path, substr, p.lastLines())
		case <-deadline:
			return "", fmt.Errorf("%s did not print %q within %s: %s", p.cmd.Path, substr, timeout, p.lastLines())
		}
	}
}

func (p *proc) lastLines() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// stop kills the process and waits for it and its reader to end.
func (p *proc) stop() {
	liveMu.Lock()
	live := liveProcs[p]
	delete(liveProcs, p)
	liveMu.Unlock()
	if !live {
		return
	}
	p.cmd.Process.Kill() // an already-exited process is fine
	<-p.done
	p.cmd.Wait() // the exit status of a killed child says nothing
}

func (p *proc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// fleet is one coordinator plus one worker.
type fleet struct {
	coord, worker *proc
	url           string
}

func (f *fleet) stop() {
	if f.worker != nil {
		f.worker.stop()
	}
	if f.coord != nil {
		f.coord.stop()
	}
}

// startFleet runs `swpfd -local-workers 0 -store DIR -debug` and one
// `swpfd -worker`, and returns once both are serving. Both run with
// -lease-batch 2. With the default 8 cells per lease the two clients'
// jobs often finish in the same lease; the worker then finds the queue
// empty and sleeps its 200 ms idle poll while both clients resubmit, so
// runs alternated between a lock-step slow mode and a fast one and
// cells_per_s swung by a quarter from run to run. Two cells per lease
// keeps one job's cells queued while the other's finish.
func startFleet(cfg *config, dir string) (*fleet, error) {
	f := &fleet{}
	var err error
	f.coord, err = startProc(cfg.swpfd, "-addr", "127.0.0.1:0", "-local-workers", "0", "-store", dir, "-debug", "-lease-batch", "2")
	if err != nil {
		return nil, err
	}
	line, err := f.coord.waitFor("msg=listening", 30*time.Second)
	if err != nil {
		f.stop()
		return nil, err
	}
	_, addr, _ := strings.Cut(line, " addr=")
	f.url = "http://" + strings.Fields(addr + " ")[0]
	f.worker, err = startProc(cfg.swpfd, "-worker", f.url, "-jobs", strconv.Itoa(cfg.jobs), "-lease-batch", "2")
	if err == nil {
		_, err = f.worker.waitFor("msg=pulling", 30*time.Second)
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// setupFleet is one full set-up: a fresh store holding the pre-stored
// cells, then a started fleet on it.
func setupFleet(cfg *config, dir string, prestore []sweep.Request) (*fleet, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	if _, err := (sweep.Runner{Jobs: cfg.jobs, Cache: st}).Execute(prestore); err != nil {
		return nil, fmt.Errorf("pre-storing cells: %w", err)
	}
	return startFleet(cfg, dir)
}

// jobOutcome is one client job as the benchmark saw it.
type jobOutcome struct {
	index int
	ms    float64
	end   time.Duration // completion, from the window's start
	recs  []sweep.Record
	err   error
}

// client is the HTTP side of one closed-loop user.
type client struct {
	http *http.Client
	url  string
	tr   *tracer
}

// run submits one spec, follows its events to the end and fetches its
// results.
func (c *client) run(n int, sp sweep.Spec) ([]sweep.Record, error) {
	req := "job-" + strconv.Itoa(n)
	parent := c.tr.start("job", req, 0)
	defer c.tr.end(parent)

	body, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	id := c.tr.start("swpfd.post_sweep_ms", req, parent)
	resp, err := c.http.Post(c.url+"/sweep", "application/json", bytes.NewReader(body))
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	var reply struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}
	err = decodeReply(resp, http.StatusAccepted, &reply)
	if err != nil {
		return nil, fmt.Errorf("POST /sweep: %w", err)
	}

	id = c.tr.start("swpfd.events_ms", req, parent)
	state, err := c.follow(reply.ID)
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	if state != "done" {
		return nil, fmt.Errorf("job %s ended %s", reply.ID, state)
	}

	id = c.tr.start("swpfd.results_ms", req, parent)
	resp, err = c.http.Get(c.url + "/results?id=" + reply.ID)
	var recs []sweep.Record
	if err == nil {
		err = decodeReply(resp, http.StatusOK, &recs)
	}
	c.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("GET /results: %w", err)
	}
	if len(recs) != reply.Cells {
		return nil, fmt.Errorf("job %s returned %d records for %d cells", reply.ID, len(recs), reply.Cells)
	}
	return recs, nil
}

// follow reads a job's event stream to its terminal event.
func (c *client) follow(id string) (string, error) {
	resp, err := c.http.Get(c.url + "/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("event %q: %w", data, err)
		}
		if ev.State != "running" {
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("event stream ended without a terminal event")
}

func decodeReply(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort context
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fleetWindow runs cfg.jobs closed-loop clients for the window, each
// taking the next job from the shared list.
func fleetWindow(cfg *config, f *fleet, specs []sweep.Spec, next *atomic.Int64, window time.Duration, tr *tracer) ([]jobOutcome, time.Duration) {
	hc := &http.Client{
		Timeout:   fleetJobTimeout,
		Transport: &http.Transport{MaxConnsPerHost: cfg.jobs, MaxIdleConnsPerHost: cfg.jobs},
	}
	defer hc.CloseIdleConnections()
	c := &client{http: hc, url: f.url, tr: tr}
	var mu sync.Mutex
	var out []jobOutcome
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < cfg.jobs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				n := int(next.Add(1) - 1)
				t0 := time.Now()
				recs, err := c.run(n, specs[n%len(specs)])
				o := jobOutcome{index: n, ms: float64(time.Since(t0).Nanoseconds()) / 1e6, end: time.Since(start), recs: recs, err: err}
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// fleetSlices is how many equal slices of the window the fleet's rates
// are taken over; their median resists a burst on a shared host.
const fleetSlices = 5

// sliceRates splits the window into fleetSlices equal slices and
// returns, per slice, the cells and the simulated (issued) millions of
// instructions per second of the jobs that completed in it.
func sliceRates(jobs []jobOutcome, window time.Duration) (cells, minstr []float64) {
	n := make([]float64, fleetSlices)
	in := make([]float64, fleetSlices)
	width := window / fleetSlices
	for _, o := range jobs {
		k := int(o.end / width)
		if k >= fleetSlices {
			k = fleetSlices - 1
		}
		for _, r := range o.recs {
			n[k]++
			in[k] += float64(r.Instructions) / 1e6
		}
	}
	for k := range n {
		cells = append(cells, n[k]/width.Seconds())
		minstr = append(minstr, in[k]/width.Seconds())
	}
	return cells, minstr
}

// scrape reads the coordinator's /metrics.
func scrape(url string) ([]obs.Sample, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.ParseText(resp.Body)
}

// sumOf adds every sample called name whose labels include want.
func sumOf(samples []obs.Sample, name string, want ...obs.Label) float64 {
	total := 0.0
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for _, w := range want {
			found := false
			for _, l := range s.Labels {
				found = found || l == w
			}
			ok = ok && found
		}
		if ok {
			total += s.Value
		}
	}
	return total
}

// histQuantile estimates a quantile of the observations a histogram
// gained between two scrapes, interpolating inside the bucket.
func histQuantile(before, after []obs.Sample, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for _, s := range after {
		if s.Name != name+"_bucket" {
			continue
		}
		for _, l := range s.Labels {
			if l.Key != "le" {
				continue
			}
			le, err := strconv.ParseFloat(l.Value, 64)
			if err != nil {
				le = math.Inf(1)
			}
			bs = append(bs, bucket{le, s.Value - sumOf(before, name+"_bucket", l)})
		}
	}
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].n
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(target-prev)/math.Max(b.n-prev, 1)
		}
		lo, prev = b.le, b.n
	}
	return lo
}

// cpuSeconds is a process's user plus system CPU time so far.
func cpuSeconds(pid string) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line, in clock ticks (100 Hz).
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0
	}
	u, _ := strconv.ParseFloat(fields[11], 64)
	st, _ := strconv.ParseFloat(fields[12], 64)
	return (u + st) / 100
}

// fetchProfile collects a CPU profile over the next secs seconds from a
// -debug swpfd.
func fetchProfile(url string, secs int) ([]byte, error) {
	resp, err := (&http.Client{Timeout: time.Duration(secs+30) * time.Second}).Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", url, secs))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("profile: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// runFleetMixed measures a real coordinator and worker under a closed
// loop of cfg.jobs clients.
func runFleetMixed(cfg *config, res *result) error {
	if cfg.swpfd == "" {
		return errors.New("fleet-mixed needs --swpfd")
	}
	specs, err := fleetJobs(cfg.seed, int(cfg.seconds*fleetJobsPerSecond)+64)
	if err != nil {
		return err
	}
	prestore, err := prestoreRequests(cfg.seed, specs)
	if err != nil {
		return err
	}
	tr := newTracer(cfg.trace)
	var f *fleet
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	var setups []float64
	for i := 0; i < 3; i++ {
		if f != nil {
			f.stop()
		}
		id := tr.start("workloads.pool_s", "setup-"+strconv.Itoa(i), 0)
		t0 := time.Now()
		f, err = setupFleet(cfg, filepath.Join(cfg.outDir, fmt.Sprintf("store-%d", i)), prestore)
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			return err
		}
	}

	before, err := scrape(f.url)
	if err != nil {
		return err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	var next atomic.Int64
	var jobs, traced []jobOutcome
	var elapsed, tracedElapsed time.Duration
	var coordProfile []byte
	var workerCPU float64
	if !cfg.trace {
		jobs, elapsed = fleetWindow(cfg, f, specs, &next, window, nil)
	} else {
		jobs, elapsed = fleetWindow(cfg, f, specs, &next, window/2, nil)
		secs := int(math.Max(1, math.Round(window.Seconds()/2)))
		var perr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			coordProfile, perr = fetchProfile(f.url, secs)
		}()
		cpu0 := cpuSeconds(f.worker.pid())
		traced, tracedElapsed = fleetWindow(cfg, f, specs, &next, time.Duration(secs)*time.Second, tr)
		workerCPU = cpuSeconds(f.worker.pid()) - cpu0
		<-done
		if perr != nil {
			return perr
		}
	}
	after, err := scrape(f.url)
	if err != nil {
		return err
	}
	if n := int(next.Load()); n > len(specs) {
		// Only a much faster fleet gets here; repeated jobs are then
		// answered by the store, so its numbers improve further.
		res.note("fleet-mixed: clients wrapped the job list (%d jobs for %d specs)", n, len(specs))
	}

	all := append(append([]jobOutcome(nil), jobs...), traced...)
	res.attempted = len(all)
	var recs []sweep.Record
	for _, o := range all {
		if o.err != nil {
			res.failed++
			res.problem("job %d: %v", o.index, o.err)
			continue
		}
		for _, r := range o.recs {
			if r.Err != "" {
				res.failed++
				res.problem("job %d %s/%s/%s: %s", o.index, r.Workload, r.System, r.Variant, r.Err)
			}
		}
		recs = append(recs, o.recs...)
	}
	checked := verifyFleet(cfg, specs, all, res)

	coordRSS, err := peakRSSMiB(f.coord.pid())
	if err != nil {
		return err
	}
	workerRSS, err := peakRSSMiB(f.worker.pid())
	if err != nil {
		return err
	}
	f.stop()

	if !cfg.trace {
		var ms []float64
		for _, o := range jobs {
			ms = append(ms, o.ms)
		}
		cellRates, instrRates := sliceRates(jobs, elapsed)
		res.e2e("setup_s", median(setups), "s")
		res.e2e("cells_per_s", median(cellRates), "cells/s")
		res.e2e("sim_minstr_per_s", median(instrRates), "Minstr/s")
		res.e2e("job_ms_p50", quantile(ms, 0.5), "ms")
		res.e2e("job_ms_p90", quantile(ms, 0.9), "ms")
		res.e2e("peak_rss_mb", coordRSS+workerRSS, "MiB")
		res.note("jobs=%d window=%.3fs job_ms_p90 has %d jobs beyond it; cells/s per slice %.1f",
			len(ms), elapsed.Seconds(), len(ms)/10, cellRates)
		return nil
	}

	res.layer("workloads.pool_s", median(tr.durations("workloads.pool_s"))/1e3)
	for _, name := range []string{"swpfd.post_sweep_ms", "swpfd.events_ms", "swpfd.results_ms"} {
		res.layer(name, median(tr.durations(name)))
	}
	reportModules(res, map[string][]byte{"swpfd": coordProfile})
	var instrs uint64
	for _, r := range recs {
		instrs += r.Instructions
	}
	reportCounts(res, recs, instrs, checked)
	res.layer("sweep.cells_per_group", float64(len(recs))/math.Max(1, float64(len(all)-res.failed)))

	d := func(name string, labels ...obs.Label) float64 {
		return sumOf(after, name, labels...) - sumOf(before, name, labels...)
	}
	completed := d("swpf_queue_completed_total")
	hits, misses := d("swpf_store_hits_total"), d("swpf_store_misses_total")
	res.layer("fleet.leases_per_cell", d("swpf_http_requests_total", obs.L("route", "POST /fleet/lease"))/math.Max(1, completed))
	res.layer("fleet.cell_ms_p50", 1e3*histQuantile(before, after, "swpf_fleet_cell_seconds", 0.5))
	res.layer("store.hit_ratio", hits/math.Max(1, hits+misses))
	res.layer("store.puts", d("swpf_store_puts_total"))
	res.layer("queue.dedup_hits", d("swpf_queue_dedup_hits_total"))
	res.layer("worker.cpu_s", workerCPU)
	untracedRates, _ := sliceRates(jobs, elapsed)
	tracedRates, _ := sliceRates(traced, tracedElapsed)
	reportOverhead(res, median(untracedRates), median(tracedRates))
	return writeSpans(cfg, tr)
}

// verifyFleet re-simulates a seed-chosen sample of the returned cells
// in process with core.Run and compares the records; it returns the
// in-process results.
func verifyFleet(cfg *config, specs []sweep.Spec, jobs []jobOutcome, res *result) []*core.Result {
	rng := stream(cfg.seed, "fleet-mixed/check")
	var out []*core.Result
	ok := make([]jobOutcome, 0, len(jobs))
	for _, o := range jobs {
		if o.err == nil {
			ok = append(ok, o)
		}
	}
	for _, k := range sampleCells(rng, len(ok), len(ok)) {
		if len(out) >= fleetCheckCells {
			break
		}
		o := ok[k]
		g, err := specs[o.index%len(specs)].ToGrid()
		if err != nil {
			res.problem("job %d: %v", o.index, err)
			continue
		}
		reqs := g.Expand()
		if len(reqs) != len(o.recs) {
			res.problem("job %d: %d records for %d cells", o.index, len(o.recs), len(reqs))
			continue
		}
		c := rng.intn(len(reqs))
		q := reqs[c]
		r, err := core.Run(q.Workload, q.System, q.Variant, q.Options)
		if err != nil {
			res.problem("verify job %d: %v", o.index, err)
			continue
		}
		out = append(out, r)
		want := (&sweep.ResultSet{Outcomes: []sweep.Outcome{{Request: q, Result: r}}}).Records()[0]
		if want != o.recs[c] {
			res.problem("job %d cell %d: fleet returned %+v, in-process run gives %+v", o.index, c, o.recs[c], want)
		}
	}
	res.note("fleet-mixed: re-simulated %d returned cells in process", len(out))
	return out
}
