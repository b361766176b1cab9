// Command swpfd is the sweep fabric's daemon: an HTTP service that
// executes experiment grids asynchronously on a shared cell queue
// (internal/fleet), backed by the content-addressed result store
// (internal/store). Submitting the same grid twice — or two grids that
// overlap, from any number of concurrent clients — costs one
// simulation per distinct cell fleet-wide; everything else is served
// from the store or attached to the already-live cell.
//
// Job API:
//
//	POST /sweep        submit a grid spec — or a JSON array of specs —
//	                   returns {"id", "cells"} (a list, for a list);
//	                   429 + Retry-After when the queue is full
//	POST /tune         submit a tune spec (internal/tune): search
//	                   (c, depth, hoist, hwpf) for the best speedup
//	                   over the no-prefetch baseline; returns {"id"} —
//	                   the job streams evaluation progress on /events
//	                   and serves its report on /results
//	GET  /jobs         list all jobs with status
//	GET  /jobs/{id}    one job's status and progress counts
//	GET  /jobs/{id}/events
//	                   live progress as Server-Sent Events; the stream
//	                   ends after the terminal event
//	GET  /results?id=ID[&format=csv|json]
//	                   a completed job's result — a sweep's ResultSet,
//	                   a tune's Report (JSON by default, CSV on request)
//	GET  /meta[?quality=full|quick|tiny|gen]
//	                   enumerate every grid axis so specs can be built
//	                   without reading source
//
// Fleet API (worker processes; see worker.go and docs/fleet.md):
//
//	POST /fleet/lease      pull a batch of cells under an expiring lease
//	POST /fleet/complete   report a lease's results
//	POST /fleet/heartbeat  extend a lease
//	GET  /fleet            queue + store statistics
//
// Cells run on -local-workers in-process worker loops (default 1) plus
// any number of remote `swpfd -worker URL` processes pulling from
// /fleet. The queue dedupes cells by content address, bounds live
// cells (-max-pending, 429 on overflow), orders by submission priority,
// and requeues the cells of leases that stop heartbeating — a killed
// worker loses work, never results.
//
// The grid spec mirrors swpfbench's -sweep flags:
//
//	curl -s localhost:8077/sweep -d '{"workloads":"IS,CG","systems":"Haswell","variants":"plain,auto","quality":"quick"}'
//	curl -s localhost:8077/jobs/job-1
//	curl -s 'localhost:8077/results?id=job-1&format=csv'
//
// Flags: -addr (default 127.0.0.1:8077 — the API is unauthenticated,
// so non-loopback binds are an explicit choice; :0 picks an ephemeral
// port and prints it), -jobs (worker pool size per sweep; in worker
// mode also the number of lease loops),
// -store/-no-store (result cache; default $SWPF_STORE — coordinators
// may share one store directory), -local-workers, -lease-ttl,
// -lease-batch, -max-pending, and -worker URL (run as a fleet worker
// instead of a daemon). See docs/service.md and docs/fleet.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hwpf"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/tune"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func main() {
	switch err := run(os.Args[1:], os.Stderr); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp): // usage already printed; exit 0
	default:
		fmt.Fprintln(os.Stderr, "swpfd:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until the listener fails — the testable
// part of the daemon is newServer, which httptest drives directly.
func run(argv []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("swpfd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "127.0.0.1:8077", "listen address (loopback by default; the API is unauthenticated)")
		jobs    = fs.Int("jobs", 0, "worker goroutines per sweep, and lease loops in -worker mode (0 = all CPUs)")
		worker  = fs.String("worker", "", "run as a fleet worker pulling cells from this coordinator URL instead of serving")
		name    = fs.String("name", "", "worker name reported to the coordinator (default swpfd-<pid>)")
		locals  = fs.Int("local-workers", 1, "in-process worker loops (0 = coordinate only, serve cells to remote workers)")
		ttl     = fs.Duration("lease-ttl", fleet.DefaultLeaseTTL, "fleet lease time-to-live between worker heartbeats")
		batch   = fs.Int("lease-batch", 8, "max cells per worker lease")
		pending = fs.Int("max-pending", fleet.DefaultMaxPending, "max live (pending+leased) cells before submissions get 429")
		debug   = fs.Bool("debug", false, "mount Go profiling endpoints under /debug/pprof/")
	)
	logFlags := obs.BindLogFlags(fs)
	resolveStore := store.BindFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	logger, err := logFlags.Logger(stderr)
	if err != nil {
		return err
	}
	if *worker != "" {
		return runWorker(*worker, *name, *jobs, *batch, logger)
	}
	st, err := resolveStore()
	if err != nil {
		return err
	}
	if st != nil {
		logger.Info("store", "dir", st.Dir())
	}
	// On the flag, 0 means coordinate-only; in config that is the -1
	// sentinel (config 0 selects the 1-worker default).
	lw := *locals
	if lw == 0 {
		lw = -1
	}
	h := newServerCfg(config{
		jobs:         *jobs,
		store:        st,
		localWorkers: lw,
		leaseBatch:   *batch,
		maxPending:   *pending,
		leaseTTL:     *ttl,
		stderr:       stderr,
		logger:       logger,
		debug:        *debug,
	})
	// Listen before announcing, so "-addr :0" logs the real port — the
	// e2e harness (and scripts) parse the addr attribute of this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", ln.Addr().String())
	return http.Serve(ln, h)
}

// SweepSpec is the POST /sweep request body: the shared grid spec of
// internal/sweep, which is also what swpfbench's -sweep flags and
// swpfctl's submit flags build — one Validate/ToGrid for every
// surface. Empty selector strings mean each axis's default; Quality
// picks the workload pool — "full" (default), "quick", "tiny" (test
// sizes), or "gen" (randomly generated kernels, see internal/gen).
type SweepSpec = sweep.Spec

// poolFor resolves a quality to its memoized workload pool; "" means
// full. Shared by spec validation and the worker's cell resolver, so
// coordinator and workers agree on what every (quality, name) denotes.
func poolFor(quality string) ([]*workloads.Workload, error) {
	return workloads.PoolByQuality(quality)
}

// validateWireSpec applies the daemon's one restriction on top of the
// shared spec validation: ad-hoc generated kernels (gen/gen_seed)
// cannot travel over the fleet, because workers reconstruct cells by
// (quality, name) against their own memoized pools — an ad-hoc family
// has no pool to resolve from. Quality "gen" (the default generated
// family) works fleet-wide.
func validateWireSpec(sp SweepSpec) (sweep.Grid, error) {
	if sp.Gen != 0 || sp.GenSeed != 0 {
		return sweep.Grid{}, errors.New(errGenWire)
	}
	return sp.ToGrid()
}

// errGenWire is the 400 body for specs carrying gen/gen_seed, shared
// by POST /sweep and POST /tune.
const errGenWire = `spec fields "gen"/"gen_seed" are not supported by the daemon (workers resolve workloads by quality and name); use "quality": "gen" for the generated family`

// Job states. Submissions are admitted straight into the cell queue
// (or rejected with 429), so there is no queued state: a job is
// running until its last cell completes.
const (
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// maxJobs bounds retained jobs: once exceeded, the oldest *terminal*
// jobs (and their result sets) are evicted, after which their ids
// answer 404. Running jobs are never evicted. (Live cells are bounded
// separately by the queue's max-pending admission control.)
const maxJobs = 256

// job is one submitted sweep or tune search. Both kinds share one
// progress state — counts, a state, an error and ping subscribers —
// and one result value; they differ only in who feeds the progress (a
// sweep's ticket; the tuner and the tickets of its evaluation batches)
// and what /results renders (a ResultSet; a tune Report).
type job struct {
	id       string
	spec     SweepSpec
	tuneSpec *TuneSpec // the full tune spec, for tune jobs

	mu     sync.Mutex
	done   int
	total  int
	state  string
	errMsg string
	result results // set when the job is done
	subs   map[chan struct{}]bool
}

// results is what GET /results renders: *sweep.ResultSet for a sweep,
// *tune.Report for a tune.
type results interface {
	WriteJSON(io.Writer) error
	WriteCSV(io.Writer) error
}

// progress advances the counts monotonically — feeds interleave (a
// tune's batch totals and its batches' deliveries), so a stale update
// never moves a count back — and pings subscribers on a change.
func (j *job) progress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if done <= j.done && total <= j.total {
		return
	}
	j.done = max(j.done, done)
	j.total = max(j.total, total)
	j.notifyLocked()
}

// finish moves the job to its terminal state: done with res, or failed
// with err.
func (j *job) finish(res results, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.state = stateFailed
		j.errMsg = err.Error()
	} else {
		j.state = stateDone
		j.result = res
	}
	j.notifyLocked()
}

// notifyLocked pings every subscriber without blocking; a full ping
// channel means a notification is already pending, which coalesces.
func (j *job) notifyLocked() {
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// subscribe registers a ping channel, pre-loaded so a late subscriber
// sees the current (possibly terminal) state at once.
func (j *job) subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	ch <- struct{}{}
	j.mu.Lock()
	j.subs[ch] = true
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// terminal reports whether the job has finished (either way).
func (j *job) terminal() bool {
	st, _ := j.status()
	return st.State != stateRunning
}

// JobStatus is the wire form of a job, served by GET /jobs{,/{id}}.
// Tune jobs additionally carry their full tune spec (search strategy
// and ladders) under "tune"; their done/total counts are evaluations,
// not grid cells.
type JobStatus struct {
	ID    string    `json:"id"`
	Spec  SweepSpec `json:"spec"`
	Tune  *TuneSpec `json:"tune,omitempty"`
	State string    `json:"state"`
	Total int       `json:"total"`
	Done  int       `json:"done"`
	Error string    `json:"error,omitempty"`
}

// status snapshots the job's wire form together with its result (nil
// until the job is done).
func (j *job) status() (JobStatus, results) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:    j.id,
		Spec:  j.spec,
		Tune:  j.tuneSpec,
		State: j.state,
		Total: j.total,
		Done:  j.done,
		Error: j.errMsg,
	}, j.result
}

// config wires a server; the zero value of every field selects a sane
// default.
type config struct {
	jobs         int          // sweep worker-pool size per local worker
	store        *store.Store // result store; nil = none
	localWorkers int          // in-process worker loops; -1 = none, 0 = 1
	leaseBatch   int
	maxPending   int
	leaseTTL     time.Duration
	stderr       io.Writer
	registry     *obs.Registry // metrics registry; nil = a fresh one
	logger       *slog.Logger  // structured log sink; nil = discard
	debug        bool          // mount /debug/pprof/
}

// server holds the cell queue, the job table and the sweep
// configuration shared by every submission.
type server struct {
	cfg    config
	queue  *fleet.Queue
	sweepM *sweep.Metrics
	tuneM  *tune.Metrics

	mu   sync.Mutex
	seq  int
	byID map[string]*job
	ids  []string // insertion order, for stable GET /jobs listings
}

// newServer builds a daemon handler with default fleet settings and
// one in-process worker — the single-node shape, and the shape most
// tests drive; st may be nil.
func newServer(jobs int, st *store.Store) http.Handler {
	return newServerCfg(config{jobs: jobs, store: st})
}

// newServerCfg builds the daemon's HTTP handler and starts its local
// worker loops. Every layer shares one metrics registry — the fleet
// queue, the store, the sweep engine and the tuner all
// register collectors or instruments on it, and the handler exposes it
// as GET /metrics (Prometheus text) and GET /debug/vars (JSON) behind
// the same middleware that instruments and access-logs every route.
func newServerCfg(cfg config) http.Handler {
	if cfg.localWorkers == 0 {
		cfg.localWorkers = 1
	} else if cfg.localWorkers < 0 {
		cfg.localWorkers = 0
	}
	if cfg.leaseBatch <= 0 {
		cfg.leaseBatch = 8
	}
	if cfg.stderr == nil {
		cfg.stderr = os.Stderr
	}
	if cfg.registry == nil {
		cfg.registry = obs.NewRegistry()
	}
	if cfg.logger == nil {
		cfg.logger = obs.Discard()
	}
	// Convert only a non-nil store: a typed nil inside sweep.Cache
	// would read as "cache attached".
	var cache sweep.Cache
	if cfg.store != nil {
		cache = cfg.store
		cfg.store.Register(cfg.registry)
	}
	s := &server{
		cfg:    cfg,
		byID:   make(map[string]*job),
		sweepM: sweep.NewMetrics(cfg.registry),
		tuneM:  tune.NewMetrics(cfg.registry),
		queue: fleet.New(fleet.Options{
			Cache:      cache,
			MaxPending: cfg.maxPending,
			LeaseTTL:   cfg.leaseTTL,
			OnPutError: store.PutWarner(cfg.stderr),
			Registry:   cfg.registry,
		}),
	}
	for i := range cfg.localWorkers {
		name := fmt.Sprintf("local-%d", i)
		w := &worker{
			name:  name,
			loops: 1,
			batch: cfg.leaseBatch,
			coord: queueCoordinator{s.queue},
			runner: sweep.Runner{
				Jobs:       cfg.jobs,
				Cache:      s.workerCache(),
				Metrics:    s.sweepM,
				OnPutError: store.PutWarner(cfg.stderr),
			},
			log:   cfg.logger.With("worker", name),
			level: slog.LevelDebug,
		}
		go w.run(context.Background())
	}
	mux := http.NewServeMux()
	routes := []string{
		"POST /sweep",
		"POST /tune",
		"GET /jobs",
		"GET /jobs/{id}",
		"GET /jobs/{id}/events",
		"GET /results",
		"GET /meta",
		"POST /fleet/lease",
		"POST /fleet/complete",
		"POST /fleet/heartbeat",
		"GET /fleet",
		"GET /metrics",
		"GET /debug/vars",
	}
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("POST /tune", s.handleTune)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /results", s.handleResults)
	mux.HandleFunc("GET /meta", s.handleMeta)
	mux.HandleFunc("POST /fleet/lease", s.handleLease)
	mux.HandleFunc("POST /fleet/complete", s.handleComplete)
	mux.HandleFunc("POST /fleet/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("GET /fleet", s.handleFleet)
	mux.Handle("GET /metrics", cfg.registry.Handler())
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		cfg.registry.WriteJSON(w)
	})
	if cfg.debug {
		routes = append(routes, "/debug/pprof/")
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return obs.NewHTTPMetrics(cfg.registry, routes).Middleware(mux, cfg.logger)
}

// MetaWorkload is one selectable workload in the GET /meta listing.
type MetaWorkload struct {
	Name   string `json:"name"`
	Params string `json:"params"`
}

// MetaSystem is one machine in the GET /meta listing.
type MetaSystem struct {
	Name string `json:"name"`
	HWPF string `json:"hwpf_default"`
	Core string `json:"core_default"`
}

// MetaModel is one hardware-prefetcher or core-model axis value in
// GET /meta.
type MetaModel struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// MetaTune advertises the tuner's searchable axis bounds: the
// strategies POST /tune accepts and the default search ladders a spec
// with empty cs/depths/hoists gets (custom ladders may widen them).
// Variants lists what can be tuned — everything but the plain
// baseline.
type MetaTune struct {
	Strategies []string `json:"strategies"`
	Variants   []string `json:"variants"`
	Cs         []int64  `json:"cs"`
	Depths     []int    `json:"depths"`
	Hoists     []bool   `json:"hoists"`
}

// Meta is the GET /meta response: every axis a SweepSpec selects over,
// plus the tuner's searchable bounds.
type Meta struct {
	Qualities     []string                  `json:"qualities"`
	Workloads     map[string][]MetaWorkload `json:"workloads"`
	Systems       []MetaSystem              `json:"systems"`
	Variants      []string                  `json:"variants"`
	HWPrefetchers []MetaModel               `json:"hwprefetchers"`
	Cores         []MetaModel               `json:"cores"`
	Execs         []string                  `json:"execs"`
	Tune          MetaTune                  `json:"tune"`
}

// handleMeta enumerates the grid axes. ?quality restricts the workload
// listing to one pool (the first request for a quality constructs and
// memoizes that pool, which generates workload input data — a one-off
// cost per quality per process).
func (s *server) handleMeta(w http.ResponseWriter, r *http.Request) {
	qualities := []string{"full", "quick", "tiny", "gen"}
	if q := r.URL.Query().Get("quality"); q != "" {
		if _, err := poolFor(q); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		qualities = []string{q}
	}
	m := Meta{
		Qualities: []string{"full", "quick", "tiny", "gen"},
		Workloads: make(map[string][]MetaWorkload),
		Variants:  make([]string, 0, len(sweep.Variants())),
	}
	for _, q := range qualities {
		pool, _ := poolFor(q)
		var ws []MetaWorkload
		for _, wl := range pool {
			ws = append(ws, MetaWorkload{Name: wl.Name, Params: wl.Params})
		}
		m.Workloads[q] = ws
	}
	for _, cfg := range uarch.All() {
		m.Systems = append(m.Systems, MetaSystem{Name: cfg.Name, HWPF: cfg.HWPrefetcherName(), Core: cfg.CoreName()})
	}
	for _, v := range sweep.Variants() {
		m.Variants = append(m.Variants, string(v))
	}
	m.HWPrefetchers = append(m.HWPrefetchers, MetaModel{
		Name:        sweep.HWPrefetcherDefault,
		Description: "keep each system's own model",
	})
	for _, name := range hwpf.Names() {
		m.HWPrefetchers = append(m.HWPrefetchers, MetaModel{Name: name, Description: hwpf.Describe(name)})
	}
	m.Cores = append(m.Cores, MetaModel{
		Name:        sweep.CoreDefault,
		Description: "keep each system's own timing model",
	})
	for _, name := range sim.CoreModels() {
		m.Cores = append(m.Cores, MetaModel{Name: name, Description: sim.DescribeCoreModel(name)})
	}
	for _, e := range sweep.ExecModes() {
		m.Execs = append(m.Execs, string(e))
	}
	m.Tune = MetaTune{
		Strategies: tune.StrategyAxis().Names(),
		Cs:         tune.DefaultCs,
		Depths:     tune.DefaultDepths,
		Hoists:     tune.DefaultHoists,
	}
	for _, v := range sweep.Variants() {
		if v != core.VariantPlain {
			m.Tune.Variants = append(m.Tune.Variants, string(v))
		}
	}
	writeJSON(w, http.StatusOK, m)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// SubmitReply is one accepted submission in the POST /sweep response.
type SubmitReply struct {
	ID    string `json:"id"`
	Cells int    `json:"cells"`
}

// handleSweep validates and submits a grid spec — or a JSON array of
// specs, admitted in order. Each spec becomes one job; the response
// returns immediately with id and cell count per job (a bare object
// for a bare spec, a list for a list). Overfull queue: 429 with a
// Retry-After header; specs already admitted from a list are reported
// in the error body's "submitted" field and keep running.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading spec: %v", err)
		return
	}
	specs, batch, err := decodeSpecs(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}

	// Validate every spec before admitting any: a bad spec in a batch
	// is a 400, not a half-submitted batch.
	type prepared struct {
		spec SweepSpec
		reqs []sweep.Request
		wire []fleet.CellSpec
	}
	preps := make([]prepared, 0, len(specs))
	for _, spec := range specs {
		grid, err := validateWireSpec(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		reqs := grid.Expand()
		wire := make([]fleet.CellSpec, len(reqs))
		for i, req := range reqs {
			if wire[i], err = fleet.SpecFor(spec.QualityName(), req); err != nil {
				writeError(w, http.StatusInternalServerError, "%v", err)
				return
			}
		}
		preps = append(preps, prepared{spec, reqs, wire})
	}

	replies := make([]SubmitReply, 0, len(preps))
	for _, p := range preps {
		ticket, err := s.queue.Submit(p.reqs, p.wire, p.spec.Priority)
		var full fleet.ErrQueueFull
		if errors.As(err, &full) {
			w.Header().Set("Retry-After", strconv.Itoa(int(full.RetryAfter.Seconds()+0.5)))
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":     full.Error(),
				"submitted": replies,
			})
			return
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		j := s.addJob(p.spec, nil)
		// Fed synchronously: a ticket whose cells were all store hits
		// is already finished, so the job is terminal before we reply.
		ticket.Watch(func(done, total int, set *sweep.ResultSet) {
			j.progress(done, total)
			if set != nil {
				j.finish(set, set.Err())
			}
		})
		replies = append(replies, SubmitReply{ID: j.id, Cells: len(p.reqs)})
	}
	if batch {
		writeJSON(w, http.StatusAccepted, replies)
		return
	}
	writeJSON(w, http.StatusAccepted, replies[0])
}

// decodeSpecs parses a POST /sweep body: one spec object, or an array
// of them; batch reports which form arrived, so the response can
// mirror it.
func decodeSpecs(body []byte) (specs []SweepSpec, batch bool, err error) {
	for _, c := range body {
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		case '[':
			batch = true
		}
		break
	}
	if batch {
		err = json.Unmarshal(body, &specs)
		if err == nil && len(specs) == 0 {
			err = fmt.Errorf("empty spec list")
		}
		return specs, true, err
	}
	var spec SweepSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, false, err
	}
	return []SweepSpec{spec}, false, nil
}

// addJob registers a new running job under the next id.
func (s *server) addJob(spec SweepSpec, tsp *TuneSpec) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &job{
		id:       "job-" + strconv.Itoa(s.seq),
		spec:     spec,
		tuneSpec: tsp,
		state:    stateRunning,
		subs:     make(map[chan struct{}]bool),
	}
	s.byID[j.id] = j
	s.ids = append(s.ids, j.id)
	s.evictLocked()
	return j
}

// evictLocked drops the oldest terminal jobs (result sets included)
// while the table exceeds maxJobs; the caller holds s.mu.
func (s *server) evictLocked() {
	for i := 0; len(s.byID) > maxJobs && i < len(s.ids); {
		j := s.byID[s.ids[i]]
		if !j.terminal() {
			i++
			continue
		}
		delete(s.byID, s.ids[i])
		s.ids = append(s.ids[:i], s.ids[i+1:]...)
	}
}

func (s *server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]*job, 0, len(s.ids))
	for _, id := range s.ids {
		list = append(list, s.byID[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(list))
	for i, j := range list {
		out[i], _ = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st, _ := j.status()
	writeJSON(w, http.StatusOK, st)
}

// Event is one GET /jobs/{id}/events payload: a progress snapshot;
// the terminal event carries the job's final state and closes the
// stream.
type Event struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	State string `json:"state"`
}

// handleEvents streams a job's progress as Server-Sent Events: one
// `data:` line per notification (counts are monotonic, intermediate
// events may be coalesced), ending with the terminal done/failed
// event. A subscriber joining a finished job gets exactly the terminal
// event.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, cancel := j.subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ch:
			st, _ := j.status()
			if _, err := io.WriteString(w, "data: "); err != nil {
				return
			}
			if err := enc.Encode(Event{Done: st.Done, Total: st.Total, State: st.State}); err != nil { // Encode appends the \n
				return
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return
			}
			fl.Flush()
			if st.State != stateRunning {
				return
			}
		}
	}
}

// handleResults renders a completed job's result — a sweep's
// ResultSet or a tune's Report, through their shared emitters: JSON by
// default, CSV with format=csv.
func (s *server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	j := s.lookup(id)
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	st, res := j.status()
	switch st.State {
	case stateRunning:
		writeError(w, http.StatusConflict, "job %s not finished (%d/%d cells)", id, st.Done, st.Total)
		return
	case stateFailed:
		writeError(w, http.StatusInternalServerError, "job %s failed: %v", id, st.Error)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		res.WriteJSON(w)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		res.WriteCSV(w)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (have json, csv)", format)
	}
}

// LeaseRequest is the POST /fleet/lease body. WaitMS > 0 long-polls:
// on an empty queue the coordinator holds the request until a cell
// can be leased, for at most min(WaitMS, leaseWait).
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
	WaitMS int64  `json:"wait_ms,omitempty"`
}

// leaseWait caps a long-polled lease; it is also the wait every
// in-process and remote worker loop asks for.
const leaseWait = time.Second

// handleLease hands the worker a batch of cells, or 204 when nothing
// is pending: at once without wait_ms, after the whole wait with it.
func (s *server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding lease request: %v", err)
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "lease request missing worker name")
		return
	}
	if req.Max <= 0 {
		req.Max = s.cfg.leaseBatch
	}
	var l *fleet.Lease
	if req.WaitMS > 0 {
		wait := time.Duration(min(req.WaitMS, leaseWait.Milliseconds())) * time.Millisecond
		l = s.queue.LeaseWait(r.Context(), req.Worker, req.Max, wait)
	} else {
		l = s.queue.Lease(req.Worker, req.Max)
	}
	if l == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, l)
}

// CompleteRequest is the POST /fleet/complete body.
type CompleteRequest struct {
	Lease   string             `json:"lease"`
	Worker  string             `json:"worker"`
	Results []fleet.CellResult `json:"results"`
}

func (s *server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding completion: %v", err)
		return
	}
	accepted, dropped := s.queue.Complete(req.Lease, req.Worker, req.Results)
	writeJSON(w, http.StatusOK, map[string]int{"accepted": accepted, "dropped": dropped})
}

// HeartbeatRequest is the POST /fleet/heartbeat body.
type HeartbeatRequest struct {
	Lease  string `json:"lease"`
	Worker string `json:"worker"`
}

func (s *server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding heartbeat: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": s.queue.Heartbeat(req.Lease, req.Worker)})
}

// FleetStatus is the GET /fleet response.
type FleetStatus struct {
	Queue fleet.Stats  `json:"queue"`
	Store *store.Stats `json:"store,omitempty"`
}

func (s *server) handleFleet(w http.ResponseWriter, r *http.Request) {
	out := FleetStatus{Queue: s.queue.Stats()}
	if s.cfg.store != nil {
		st := s.cfg.store.Stats()
		out.Store = &st
	}
	writeJSON(w, http.StatusOK, out)
}

// traceOnlyCache is the local workers' view of the daemon cache:
// result Gets and Puts are no-ops — the queue already probed at
// submission, and the coordinator persists each distinct cell exactly
// once at completion — while trace traffic passes through, so replay
// groups still record once per store lifetime.
type traceOnlyCache struct{ tc sweep.TraceCache }

func (c traceOnlyCache) Get(sweep.Request) (*core.Result, bool) { return nil, false }
func (c traceOnlyCache) Put(sweep.Request, *core.Result) error  { return nil }
func (c traceOnlyCache) GetTrace(r sweep.Request) (*trace.Trace, bool) {
	return c.tc.GetTrace(r)
}
func (c traceOnlyCache) PutTrace(r sweep.Request, t *trace.Trace) error {
	return c.tc.PutTrace(r, t)
}

// workerCache builds the cache a local worker runs under.
func (s *server) workerCache() sweep.Cache {
	if s.cfg.store != nil {
		return traceOnlyCache{s.cfg.store}
	}
	return nil
}

// keepAlive calls beat at an interval safely inside a lease TTL until
// stop is called or beat reports the lease gone. stop does not wait for
// a beat in flight; a late beat finds the lease completed and is
// harmless.
func keepAlive(ttl time.Duration, beat func() bool) (stop func()) {
	every := max(ttl/3, 10*time.Millisecond)
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if !beat() {
					return
				}
			}
		}
	}()
	return func() { close(done) }
}
