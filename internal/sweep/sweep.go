// Package sweep is the parallel experiment engine: it takes a list (or
// declarative grid) of simulation requests — workload × machine ×
// variant × options — fans them out across a pool of worker goroutines,
// and collects the outcomes into a deterministic, order-independent
// result set with JSON/CSV emitters and speedup helpers.
//
// Every run is an independent, deterministic simulation, so the result
// set is bit-identical for any worker count; tests diff serial against
// parallel executions to enforce this. Each worker owns a core.Context,
// which keeps one reset-in-place simulator per machine configuration,
// so workers recycle their cache/TLB/MSHR table storage across runs
// instead of reallocating it.
//
// Cells requested with Exec = core.ExecReplay run through the
// record/replay split (internal/trace): the engine factors them by
// Group (workload, variant, options) — the functional coordinates —
// records (or fetches from a TraceCache) one trace per group, and
// retimes every machine × hwpf cell of the group by replaying that
// trace. Replayed
// statistics are byte-for-byte identical to direct runs, so the two
// modes are interchangeable cell by cell; replay just amortizes the
// interpreter across the timing axes.
//
// The figure harness (internal/bench), the golden stat dumper
// (cmd/golden) and swpfbench's -sweep mode are all built on this
// package.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Request describes one cell of an experiment grid. Exec selects the
// execution mode; the zero value ("") means core.ExecDirect, so request
// lists written before the axis existed behave unchanged.
type Request struct {
	Workload *workloads.Workload
	System   *sim.Config
	Variant  core.Variant
	Options  core.Options
	Exec     core.ExecMode
}

// ExecMode returns the request's execution mode with the zero value
// normalized to direct.
func (r Request) ExecMode() core.ExecMode {
	if r.Exec == "" {
		return core.ExecDirect
	}
	return r.Exec
}

// Cell is the identity of a request: every coordinate its statistics
// depend on. The execution mode is absent — direct and replay produce
// byte-identical results, so they are the same cell. Field order and
// types are a format: internal/store and internal/fleet hash the JSON
// of a Cell (embedded in their key documents, whose encoding flattens
// it), so reordering or retyping a field moves every stored key.
type Cell struct {
	Workload string
	Params   string
	System   *sim.Config
	Variant  core.Variant
	Options  core.Options
}

// Group is a Cell without its machine: the functional coordinates a
// recorded trace depends on. The cells of one Group share one trace,
// which is what replay amortizes. Like Cell, its JSON is hashed into
// trace keys.
type Group struct {
	Workload string
	Params   string
	Variant  core.Variant
	Options  core.Options
}

// Cell returns the request's cell identity.
func (r Request) Cell() Cell {
	return Cell{r.Workload.Name, r.Workload.Params, r.System, r.Variant, r.Options}
}

// Group returns the request's replay group.
func (r Request) Group() Group {
	return Group{r.Workload.Name, r.Workload.Params, r.Variant, r.Options}
}

// Restore rebuilds the Result a snapshot of this request's cell stands
// for — a stored object or a worker's report. The pass report is nil:
// a snapshot does not carry it.
func (r Request) Restore(s core.Snapshot) *core.Result {
	return &core.Result{Workload: r.Workload.Name, System: r.System.Name, Variant: r.Variant, Snapshot: s}
}

// Outcome pairs a request with what happened when it ran.
type Outcome struct {
	Request
	Result *core.Result
	Err    error
}

// Jobs normalizes a worker count: non-positive means GOMAXPROCS, and
// the pool never exceeds the number of requests.
func Jobs(jobs, requests int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > requests {
		jobs = requests
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// Cache is a pluggable persistent result cache consulted by Runner.
// Get returns the stored result for a request (a miss is (nil, false));
// Put persists a freshly computed one. A simulation request is fully
// deterministic, so a cache entry is exactly as good as re-running the
// cell — internal/store provides the content-addressed on-disk
// implementation. Implementations must be safe for concurrent use:
// worker goroutines Put results as they complete.
//
// Result keys ignore the execution mode — direct and replay results
// are byte-identical, so either mode's entries serve both.
type Cache interface {
	Get(Request) (*core.Result, bool)
	Put(Request, *core.Result) error
}

// TraceCache is the optional trace-object extension of Cache: a cache
// that also persists recorded traces lets a replay sweep skip the
// recording interpretation entirely when any earlier sweep (or
// process) has recorded the same (workload, variant, options) group.
// internal/store implements it; a Runner probes for it with a type
// assertion, so plain result caches keep working untouched.
type TraceCache interface {
	GetTrace(Request) (*trace.Trace, bool)
	PutTrace(Request, *trace.Trace) error
}

// Runner executes request lists. The zero value runs serially enough:
// Jobs <= 0 selects GOMAXPROCS workers, no cache, no progress
// reporting.
type Runner struct {
	// Jobs is the worker-pool size; <= 0 selects GOMAXPROCS.
	Jobs int
	// Cache, when non-nil, answers cells without simulating and
	// persists computed results as each cell completes — an
	// interrupted grid resumes from the cells already stored. If it
	// also implements TraceCache, replay-mode groups fetch and persist
	// their traces through it.
	Cache Cache
	// OnProgress, when non-nil, is invoked after every completed cell
	// (cache hit or simulated) with the running completion count and
	// the request total. It is called concurrently from worker
	// goroutines and must be safe for that.
	OnProgress func(done, total int)
	// OnPutError, when non-nil, receives cache-persistence failures
	// (results and traces alike). Persistence is best-effort: a failed
	// Put never fails the sweep (the cell just recomputes next time),
	// so with a nil callback failures are silently ignored. Called
	// concurrently from worker goroutines.
	OnPutError func(Request, error)
	// Metrics, when non-nil, receives per-cell accounting: how each
	// cell was served and per-phase latency histograms (see
	// NewMetrics). Observations wrap the simulator calls from outside,
	// so result sets are byte-identical with or without it.
	Metrics *Metrics
}

// group is one replay group: the request indices (in request order)
// sharing a functional key.
type group struct {
	idxs  []int
	image *interp.Image
	err   error
}

// Execute runs every request and returns the outcomes in request
// order, regardless of completion order. The returned error is the
// first failure in request order — deterministic even though workers
// race — and the result set still holds every other outcome. Cache
// hits are served before the worker pool starts, so only misses cost
// simulation time; failed cells are never cached.
//
// Replay-mode misses run in two pooled phases after the direct pool:
// one trace per group (recorded, or fetched from a TraceCache) decoded
// once into an image, then every cell of every group as a replay. A
// group whose trace cannot be obtained fails all its cells with the
// recording error. The result set is bit-identical for any worker count in both
// modes — and across modes, which cmd/golden enforces byte-for-byte.
func (r Runner) Execute(reqs []Request) (*ResultSet, error) {
	out := make([]Outcome, len(reqs))
	m := r.metrics()
	var done atomic.Int64
	progress := func() {
		n := int(done.Add(1))
		if r.OnProgress != nil {
			r.OnProgress(n, len(reqs))
		}
	}

	// Serve cache hits up front; only the misses go to the pools.
	// Result keys ignore Exec, so a warm direct store answers replay
	// cells (and vice versa) — the modes produce identical results.
	var direct []int
	var groups []*group
	byKey := make(map[Group]*group)
	for i, req := range reqs {
		if r.Cache != nil {
			if res, ok := r.Cache.Get(req); ok {
				out[i] = Outcome{Request: req, Result: res}
				m.CellsCache.Inc()
				progress()
				continue
			}
		}
		if req.ExecMode() != core.ExecReplay {
			direct = append(direct, i)
			continue
		}
		k := req.Group()
		g := byKey[k]
		if g == nil {
			g = &group{}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.idxs = append(g.idxs, i)
	}

	// Direct misses: one cell per work item, as always.
	r.pool(len(direct), func(cx *core.Context, n int) {
		i := direct[n]
		req := reqs[i]
		start := time.Now()
		res, err := cx.Run(req.Workload, req.System, req.Variant, req.Options)
		m.DirectSeconds.Observe(time.Since(start).Seconds())
		m.CellsDirect.Inc()
		out[i] = Outcome{Request: req, Result: res, Err: err}
		r.put(req, res, err)
		progress()
	})

	// Replay phase 1: one image per group. Recording only interprets;
	// every cell, the first included, is timed in phase 2.
	tc, _ := r.Cache.(TraceCache)
	r.pool(len(groups), func(cx *core.Context, n int) {
		g := groups[n]
		req := reqs[g.idxs[0]]
		if tc != nil {
			if t, ok := tc.GetTrace(req); ok {
				if im, err := interp.NewImage(t); err == nil {
					g.image = im
					return
				}
				// Undecodable under this build (e.g. recorded by a
				// different IR revision): fall through and re-record.
			}
		}
		start := time.Now()
		t, _, err := core.RecordTrace(req.Workload, req.Variant, req.Options)
		if err == nil {
			g.image, err = interp.NewImage(t)
		}
		m.RecordSeconds.Observe(time.Since(start).Seconds())
		if err != nil {
			g.err = err
			return
		}
		if tc != nil {
			if perr := tc.PutTrace(req, t); perr != nil && r.OnPutError != nil {
				r.OnPutError(req, perr)
			}
		}
	})

	// Replay phase 2: every cell, retimed from its group's predecoded
	// image (shared read-only across workers).
	var cells, cellGroup []int
	for gi, g := range groups {
		if g.err != nil {
			for _, i := range g.idxs {
				out[i] = Outcome{Request: reqs[i], Err: g.err}
				progress()
			}
			continue
		}
		for _, i := range g.idxs {
			cells = append(cells, i)
			cellGroup = append(cellGroup, gi)
		}
	}
	r.pool(len(cells), func(cx *core.Context, n int) {
		i := cells[n]
		req := reqs[i]
		start := time.Now()
		res, err := cx.ReplayImage(groups[cellGroup[n]].image, req.System)
		m.ReplaySeconds.Observe(time.Since(start).Seconds())
		m.CellsReplayed.Inc()
		out[i] = Outcome{Request: req, Result: res, Err: err}
		r.put(req, res, err)
		progress()
	})

	set := &ResultSet{Outcomes: out}
	return set, set.Err()
}

// pool runs n work items on a worker pool. Each worker owns one
// core.Context, so simulator tables are recycled across that worker's
// items and never shared between goroutines.
func (r Runner) pool(n int, f func(cx *core.Context, n int)) {
	if n == 0 {
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := Jobs(r.Jobs, n); k > 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cx := core.NewContext()
			for {
				j := int(next.Add(1)) - 1
				if j >= n {
					return
				}
				f(cx, j)
			}
		}()
	}
	wg.Wait()
}

// put persists a successful result, reporting failures to OnPutError.
func (r Runner) put(req Request, res *core.Result, err error) {
	if err != nil || r.Cache == nil {
		return
	}
	if perr := r.Cache.Put(req, res); perr != nil && r.OnPutError != nil {
		r.OnPutError(req, perr)
	}
}

// Execute runs every request on a pool of jobs worker goroutines
// (jobs <= 0 selects GOMAXPROCS); see Runner.Execute.
func Execute(reqs []Request, jobs int) (*ResultSet, error) {
	return Runner{Jobs: jobs}.Execute(reqs)
}
