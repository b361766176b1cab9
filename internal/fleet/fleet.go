// Package fleet is the shared job queue behind the distributed sweep
// fabric: it decomposes submitted request lists into *cells* — the
// content-addressed unit of simulation work — dedupes them fleet-wide,
// and hands them out to workers under expiring leases.
//
// The queue is the coordinator's data structure; cmd/swpfd wraps it in
// HTTP (POST /fleet/lease, /fleet/complete, /fleet/heartbeat) for
// remote worker processes and runs in-process worker loops against it
// directly. The properties the fabric rests on:
//
//   - Idempotent dedupe. A cell's identity is a canonical hash of
//     (workload name+params, full machine config, variant, options) —
//     the same coordinates internal/store keys results by, and like
//     store keys it excludes the execution mode (direct and replay
//     results are byte-identical). Overlapping grids from concurrent
//     clients attach to the same live cell, so every distinct cell is
//     simulated exactly once fleet-wide; each submission still gets its
//     own outcome slot, labelled with its own requested exec mode.
//   - Leases, not assignments. Workers pull batches of cells under a
//     lease with a TTL; a worker that dies simply stops heartbeating
//     and its cells return to the queue when the lease expires — no
//     cell is ever lost. Duplicate completions (a slow worker racing a
//     re-lease) are dropped idempotently, so no cell's result is ever
//     accepted, or persisted, twice.
//   - Bounded backpressure. Live cells (pending + leased) are capped;
//     a submission that would exceed the cap is rejected atomically
//     with ErrQueueFull before anything is enqueued — cmd/swpfd maps
//     this to 429 + Retry-After.
//   - Priorities. Cells inherit their submission's priority; higher
//     priorities lease first, FIFO within a priority. A cell shared by
//     several submissions keeps the highest priority it has been asked
//     for at.
//   - Replay grouping. Cells requested with exec=replay lease as whole
//     (workload, variant, options) groups, so the worker that records
//     the group's trace replays every machine × hwpf cell of it —
//     preserving the one-interpretation-per-group amortization of
//     internal/trace across the fleet.
//
// Expiry is lazy: expired leases are reaped on the next Submit, Lease,
// Complete, Heartbeat or Stats call rather than by a background timer,
// which keeps the queue deterministic under test clocks.
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// KeyOf returns the canonical cell identity of a request: a SHA-256
// hex digest over workload name+params, the full machine
// configuration, the variant and the options. The execution mode is
// deliberately excluded — direct and replay produce byte-identical
// results, so they are the same cell.
func KeyOf(r sweep.Request) string {
	doc := struct {
		Workload string
		Params   string
		System   *sim.Config
		Variant  string
		Options  core.Options
	}{r.Workload.Name, r.Workload.Params, r.System, string(r.Variant), r.Options}
	b, err := json.Marshal(doc)
	if err != nil {
		// Every field is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("fleet: marshal key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// CellSpec is the wire form of one cell, self-contained enough for a
// worker process to reconstruct the request: the workload is named (a
// worker rebuilds it from its own pools, cross-checked against
// Params), the machine configuration travels in full.
type CellSpec struct {
	Quality  string          `json:"quality"`
	Workload string          `json:"workload"`
	Params   string          `json:"params"`
	System   json.RawMessage `json:"system"`
	Variant  string          `json:"variant"`
	Options  core.Options    `json:"options"`
	Exec     string          `json:"exec,omitempty"`
}

// SpecFor builds the wire form of a request. quality names the
// workload pool the submitting spec drew from, so workers resolve the
// same workload by name.
func SpecFor(quality string, r sweep.Request) (CellSpec, error) {
	sys, err := json.Marshal(r.System)
	if err != nil {
		return CellSpec{}, fmt.Errorf("fleet: marshal system: %w", err)
	}
	return CellSpec{
		Quality:  quality,
		Workload: r.Workload.Name,
		Params:   r.Workload.Params,
		System:   sys,
		Variant:  string(r.Variant),
		Options:  r.Options,
		Exec:     string(r.Exec),
	}, nil
}

// WorkloadResolver resolves a named workload out of a quality pool; a
// worker process supplies one backed by its own memoized pools.
type WorkloadResolver func(quality, name string) (*sweep.Request, error)

// Request reconstructs the executable request from the wire form. The
// resolver returns a request template whose Workload is resolved; the
// spec fills in system, variant, options and exec. The resolved
// workload's Params must match the spec's — a mismatch means the two
// processes disagree about what the name denotes, and running it would
// silently compute the wrong cell.
func (c CellSpec) Request(resolve WorkloadResolver) (sweep.Request, error) {
	tmpl, err := resolve(c.Quality, c.Workload)
	if err != nil {
		return sweep.Request{}, err
	}
	if tmpl.Workload.Params != c.Params {
		return sweep.Request{}, fmt.Errorf("fleet: workload %s/%s params mismatch: coordinator %q, worker %q",
			c.Quality, c.Workload, c.Params, tmpl.Workload.Params)
	}
	var cfg sim.Config
	if err := json.Unmarshal(c.System, &cfg); err != nil {
		return sweep.Request{}, fmt.Errorf("fleet: unmarshal system: %w", err)
	}
	return sweep.Request{
		Workload: tmpl.Workload,
		System:   &cfg,
		Variant:  core.Variant(c.Variant),
		Options:  c.Options,
		Exec:     core.ExecMode(c.Exec),
	}, nil
}

// ResultData is the serializable snapshot of a core.Result carried in
// completion reports (the Pass report is omitted, like in
// internal/store: it holds pointers into live IR and no emitter reads
// it).
type ResultData struct {
	Checksum int64
	Cycles   float64
	Stats    interp.Stats

	L1Hits, L1Misses   uint64
	DRAMAccesses       uint64
	SWPrefetches       uint64
	HWPrefetches       uint64
	HWPrefetchDropped  uint64
	TLBWalks           uint64
	LoadStallCycles    float64
	PrefetchLateCycles float64
	PrefetchedUnusedL1 uint64
}

// ResultDataOf snapshots a result for the wire.
func ResultDataOf(res *core.Result) ResultData {
	return ResultData{
		Checksum: res.Checksum,
		Cycles:   res.Cycles,
		Stats:    res.Stats,

		L1Hits:             res.L1Hits,
		L1Misses:           res.L1Misses,
		DRAMAccesses:       res.DRAMAccesses,
		SWPrefetches:       res.SWPrefetches,
		HWPrefetches:       res.HWPrefetches,
		HWPrefetchDropped:  res.HWPrefetchDropped,
		TLBWalks:           res.TLBWalks,
		LoadStallCycles:    res.LoadStallCycles,
		PrefetchLateCycles: res.PrefetchLateCycles,
		PrefetchedUnusedL1: res.PrefetchedUnusedL1,
	}
}

// Result rebuilds a core.Result for the given request's coordinates.
func (d ResultData) Result(r sweep.Request) *core.Result {
	return &core.Result{
		Workload: r.Workload.Name,
		System:   r.System.Name,
		Variant:  r.Variant,
		Checksum: d.Checksum,
		Cycles:   d.Cycles,
		Stats:    d.Stats,

		L1Hits:             d.L1Hits,
		L1Misses:           d.L1Misses,
		DRAMAccesses:       d.DRAMAccesses,
		SWPrefetches:       d.SWPrefetches,
		HWPrefetches:       d.HWPrefetches,
		HWPrefetchDropped:  d.HWPrefetchDropped,
		TLBWalks:           d.TLBWalks,
		LoadStallCycles:    d.LoadStallCycles,
		PrefetchLateCycles: d.PrefetchLateCycles,
		PrefetchedUnusedL1: d.PrefetchedUnusedL1,
	}
}

// LeaseCell is one cell inside a lease: the key the worker must echo
// back, plus the wire spec.
type LeaseCell struct {
	Key  string   `json:"key"`
	Spec CellSpec `json:"spec"`
}

// Lease is a batch of cells handed to one worker. The worker must
// Complete (or keep Heartbeating) before TTL elapses, or the cells
// return to the queue.
type Lease struct {
	ID    string      `json:"id"`
	TTLMS int64       `json:"ttl_ms"`
	Cells []LeaseCell `json:"cells"`

	// reqs holds the live requests for in-process workers, indexed
	// like Cells; remote workers reconstruct them from the specs.
	reqs []sweep.Request
}

// Requests returns the lease's cells as live requests — the in-process
// fast path that skips the wire round trip.
func (l *Lease) Requests() []sweep.Request { return l.reqs }

// TTL returns the lease's time-to-live.
func (l *Lease) TTL() time.Duration { return time.Duration(l.TTLMS) * time.Millisecond }

// CellResult is one cell's outcome in a completion report.
type CellResult struct {
	Key    string      `json:"key"`
	Err    string      `json:"err,omitempty"`
	Result *ResultData `json:"result,omitempty"`
}

// ErrQueueFull is returned by Submit when admitting the submission's
// new cells would exceed the live-cell bound. Nothing was enqueued —
// admission is all-or-nothing — so the client can simply retry after
// RetryAfter.
type ErrQueueFull struct {
	Live, New, Limit int
	RetryAfter       time.Duration
}

func (e ErrQueueFull) Error() string {
	return fmt.Sprintf("queue full: %d cells live, %d new would exceed the %d-cell limit (retry after %s)",
		e.Live, e.New, e.Limit, e.RetryAfter)
}

// Progress is one progress notification on a ticket subscription.
type Progress struct {
	Done, Total int
	Finished    bool
}

// Ticket tracks one submission through the queue: per-request outcome
// slots, a progress counter, and subscriber channels for streaming.
type Ticket struct {
	q     *Queue
	total int

	mu       sync.Mutex
	outs     []sweep.Outcome
	done     int
	finished bool
	subs     map[chan Progress]bool

	doneCh chan struct{}
}

// Total returns the submission's cell count.
func (t *Ticket) Total() int { return t.total }

// Progress returns completed and total counts.
func (t *Ticket) Progress() (done, total int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done, t.total
}

// Done is closed when every cell of the submission has an outcome.
func (t *Ticket) Done() <-chan struct{} { return t.doneCh }

// ResultSet returns the outcomes once the ticket is finished; ok is
// false while cells are still outstanding.
func (t *Ticket) ResultSet() (*sweep.ResultSet, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.finished {
		return nil, false
	}
	return &sweep.ResultSet{Outcomes: t.outs}, true
}

// Subscribe registers a progress listener. The channel is buffered and
// intermediate events may be coalesced (counts are monotonic), but the
// final Finished event is always delivered. The returned cancel
// function unsubscribes and closes the channel; it is idempotent.
func (t *Ticket) Subscribe() (<-chan Progress, func()) {
	ch := make(chan Progress, 16)
	t.mu.Lock()
	if t.subs == nil {
		t.subs = make(map[chan Progress]bool)
	}
	t.subs[ch] = true
	// Seed with the current state so late subscribers see something
	// immediately — including the terminal event of a finished ticket.
	t.pushLocked(ch, Progress{Done: t.done, Total: t.total, Finished: t.finished})
	t.mu.Unlock()
	return ch, func() {
		t.mu.Lock()
		if t.subs[ch] {
			delete(t.subs, ch)
			close(ch)
		}
		t.mu.Unlock()
	}
}

// pushLocked delivers without blocking: if the buffer is full the
// oldest event is dropped — later events carry newer counts.
func (t *Ticket) pushLocked(ch chan Progress, p Progress) {
	for {
		select {
		case ch <- p:
			return
		default:
			select {
			case <-ch:
			default:
			}
		}
	}
}

// deliver fills one outcome slot and advances progress.
func (t *Ticket) deliver(idx int, res *core.Result, err error) {
	t.mu.Lock()
	t.outs[idx].Result = res
	t.outs[idx].Err = err
	t.done++
	p := Progress{Done: t.done, Total: t.total, Finished: t.done == t.total}
	for ch := range t.subs {
		t.pushLocked(ch, p)
	}
	fin := p.Finished && !t.finished
	if fin {
		t.finished = true
	}
	t.mu.Unlock()
	if fin {
		close(t.doneCh)
	}
}

// cellState tracks where a live cell is.
type cellState int

const (
	cellPending cellState = iota
	cellLeased
)

// replayGroup identifies the functional coordinates a replay trace is
// shared across — machine and hwpf absent, exactly like the sweep
// engine's grouping.
type replayGroup struct {
	name, params string
	variant      core.Variant
	options      core.Options
}

// waiter is one submission slot waiting on a cell.
type waiter struct {
	t   *Ticket
	idx int
}

// cell is one live unit of simulation work.
type cell struct {
	key      string
	req      sweep.Request
	spec     CellSpec
	prio     int
	seq      int64
	group    *replayGroup // non-nil when leased as a replay group
	state    cellState
	leaseID  string
	leasedAt time.Time // last time the cell was handed to a worker
	waiters  []waiter
}

type lease struct {
	id       string
	worker   string
	cells    []*cell
	deadline time.Time
}

// Options configures a Queue.
type Options struct {
	// Cache, when non-nil, answers cells at submission time and
	// persists accepted completions — exactly once per distinct cell.
	Cache sweep.Cache
	// MaxPending bounds live cells (pending + leased); 0 selects
	// DefaultMaxPending.
	MaxPending int
	// LeaseTTL is how long a lease lives between heartbeats; 0 selects
	// DefaultLeaseTTL.
	LeaseTTL time.Duration
	// OnPutError receives cache-persistence failures (best-effort,
	// like sweep.Runner's).
	OnPutError func(sweep.Request, error)
	// Now is the clock; nil selects time.Now. Tests inject one to make
	// lease expiry deterministic.
	Now func() time.Time
	// Registry receives the queue's metrics: every Stats field as a
	// collector (one Stats() call per scrape, so all queue series come
	// from a single acquisition of the queue lock and are mutually
	// consistent — and identical to what GET /fleet reports), plus the
	// cell execution-latency histogram. Nil keeps the instruments on a
	// private, unscraped registry so the queue code stays branch-free.
	Registry *obs.Registry
}

// Defaults.
const (
	DefaultMaxPending = 65536
	DefaultLeaseTTL   = 2 * time.Minute
)

// Stats is a snapshot of queue state and lifetime counters.
type Stats struct {
	// Live state.
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Leases  int `json:"leases"`
	// Lifetime counters.
	Submissions int64 `json:"submissions"`
	CellsSeen   int64 `json:"cells_seen"`   // outcome slots ever submitted
	CacheHits   int64 `json:"cache_hits"`   // slots answered by the cache at submit
	DedupHits   int64 `json:"dedup_hits"`   // slots attached to an already-live cell
	Completed   int64 `json:"completed"`    // distinct cells accepted from workers
	Failed      int64 `json:"failed"`       // distinct cells completed with an error
	Requeued    int64 `json:"requeued"`     // cells returned by expired leases
	DupDropped  int64 `json:"dup_dropped"`  // duplicate/late completions dropped
	MaxPending  int   `json:"max_pending"`  // the live-cell bound
	LeaseTTLMS  int64 `json:"lease_ttl_ms"` // current lease TTL
	// Workers ever seen, most recent contact first.
	Workers []WorkerInfo `json:"workers,omitempty"`
}

// WorkerInfo is one worker's liveness entry.
type WorkerInfo struct {
	Name     string    `json:"name"`
	LastSeen time.Time `json:"last_seen"`
}

// Queue is the shared cell queue. All methods are safe for concurrent
// use.
type Queue struct {
	cache      sweep.Cache
	maxPending int
	ttl        time.Duration
	onPutError func(sweep.Request, error)
	now        func() time.Time

	mu       sync.Mutex
	cells    map[string]*cell
	pending  []*cell // sorted: priority desc, then seq asc
	leases   map[string]*lease
	seq      int64
	leaseSeq int64
	workers  map[string]time.Time
	wake     chan struct{}

	submissions, cellsSeen, cacheHits, dedupHits int64
	completed, failed, requeued, dupDropped      int64

	// cellSeconds observes lease→accepted-completion latency per cell.
	// Always non-nil (a private registry backs it when Options.Registry
	// is nil), so the accounting sites stay branch-free.
	cellSeconds *obs.Histogram
}

// New builds a queue.
func New(opt Options) *Queue {
	if opt.MaxPending <= 0 {
		opt.MaxPending = DefaultMaxPending
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = DefaultLeaseTTL
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	if opt.Registry == nil {
		opt.Registry = obs.NewRegistry()
	}
	q := &Queue{
		cache:      opt.Cache,
		maxPending: opt.MaxPending,
		ttl:        opt.LeaseTTL,
		onPutError: opt.OnPutError,
		now:        opt.Now,
		cells:      make(map[string]*cell),
		leases:     make(map[string]*lease),
		workers:    make(map[string]time.Time),
		wake:       make(chan struct{}),
	}
	q.cellSeconds = opt.Registry.Histogram("swpf_fleet_cell_seconds",
		"Cell execution latency from lease to accepted completion, in seconds.", nil)
	opt.Registry.Collect(q.collect)
	return q
}

// collect emits every Stats field as metric samples. The single
// Stats() call snapshots under one acquisition of the queue lock, so
// all queue series within a scrape are mutually consistent — and
// byte-for-byte the numbers GET /fleet serves, which renders from the
// same snapshot function.
func (q *Queue) collect(emit func(obs.Sample)) {
	s := q.Stats()
	gauge := func(name, help string, v int) {
		emit(obs.Sample{Name: name, Help: help, Kind: obs.KindGauge, Value: float64(v)})
	}
	counter := func(name, help string, v int64) {
		emit(obs.Sample{Name: name, Help: help, Kind: obs.KindCounter, Value: float64(v)})
	}
	gauge("swpf_queue_pending", "Cells waiting to be leased.", s.Pending)
	gauge("swpf_queue_leased", "Cells currently out under a lease.", s.Leased)
	gauge("swpf_queue_leases", "Live leases.", s.Leases)
	gauge("swpf_queue_workers", "Workers ever seen by the coordinator.", len(s.Workers))
	gauge("swpf_queue_max_pending", "The live-cell admission bound.", s.MaxPending)
	counter("swpf_queue_submissions_total", "Submissions accepted.", s.Submissions)
	counter("swpf_queue_cells_total", "Outcome slots ever submitted.", s.CellsSeen)
	counter("swpf_queue_cache_hits_total", "Slots answered by the result store at submit.", s.CacheHits)
	counter("swpf_queue_dedup_hits_total", "Slots attached to an already-live cell.", s.DedupHits)
	counter("swpf_queue_completed_total", "Distinct cells accepted from workers.", s.Completed)
	counter("swpf_queue_failed_total", "Distinct cells completed with an error.", s.Failed)
	counter("swpf_queue_requeued_total", "Cells returned to the queue by expired leases.", s.Requeued)
	counter("swpf_queue_dup_dropped_total", "Duplicate or late completions dropped.", s.DupDropped)
}

// LeaseTTL returns the queue's lease time-to-live.
func (q *Queue) LeaseTTL() time.Duration { return q.ttl }

// Submit enqueues a request list at the given priority. specs must
// parallel reqs (SpecFor per request). Cache hits are answered
// immediately, duplicates of live cells attach as waiters, and only
// genuinely new cells enter the queue — atomically: if they would
// exceed the live-cell bound, ErrQueueFull is returned and nothing is
// enqueued.
func (q *Queue) Submit(reqs []sweep.Request, specs []CellSpec, prio int) (*Ticket, error) {
	if len(specs) != len(reqs) {
		return nil, fmt.Errorf("fleet: %d specs for %d requests", len(specs), len(reqs))
	}
	t := &Ticket{q: q, total: len(reqs), outs: make([]sweep.Outcome, len(reqs)), doneCh: make(chan struct{})}
	for i, r := range reqs {
		t.outs[i].Request = r
	}

	// Probe the cache outside the queue lock — it is disk I/O.
	hits := make([]*core.Result, len(reqs))
	nHits := 0
	if q.cache != nil {
		for i, r := range reqs {
			if res, ok := q.cache.Get(r); ok {
				hits[i] = res
				nHits++
			}
		}
	}

	q.mu.Lock()
	q.expireLocked()
	q.submissions++
	q.cellsSeen += int64(len(reqs))
	q.cacheHits += int64(nHits)

	// Admission control: count the genuinely new cells first.
	newKeys := make(map[string]bool)
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		if hits[i] != nil {
			continue
		}
		keys[i] = KeyOf(r)
		if q.cells[keys[i]] == nil {
			newKeys[keys[i]] = true
		}
	}
	if live := len(q.cells); live+len(newKeys) > q.maxPending {
		q.mu.Unlock()
		return nil, ErrQueueFull{Live: live, New: len(newKeys), Limit: q.maxPending, RetryAfter: time.Second}
	}

	enqueued := false
	for i, r := range reqs {
		if hits[i] != nil {
			continue
		}
		c := q.cells[keys[i]]
		if c != nil {
			q.dedupHits++
			if prio > c.prio && c.state == cellPending {
				q.removePendingLocked(c)
				c.prio = prio
				q.insertPendingLocked(c)
			} else if prio > c.prio {
				c.prio = prio
			}
		} else {
			// Re-probe the cache under the lock: the cell may have
			// completed — and persisted, since Complete holds this lock
			// across its Puts — after the unlocked probe above, and
			// re-enqueuing it would simulate and persist the same cell a
			// second time.
			if q.cache != nil {
				if res, ok := q.cache.Get(r); ok {
					hits[i] = res
					q.cacheHits++
					continue
				}
			}
			q.seq++
			c = &cell{key: keys[i], req: r, spec: specs[i], prio: prio, seq: q.seq}
			if r.ExecMode() == core.ExecReplay {
				c.group = &replayGroup{r.Workload.Name, r.Workload.Params, r.Variant, r.Options}
			}
			q.cells[c.key] = c
			q.insertPendingLocked(c)
			enqueued = true
		}
		c.waiters = append(c.waiters, waiter{t, i})
	}
	if enqueued {
		q.notifyLocked()
	}
	q.mu.Unlock()

	// Deliver cache hits after releasing the queue lock; deliver takes
	// only the ticket lock.
	for i, res := range hits {
		if res != nil {
			t.deliver(i, res, nil)
		}
	}
	// An all-hit (or empty) submission finishes here without ever
	// waking a worker.
	if len(reqs) == 0 {
		t.mu.Lock()
		t.finished = true
		t.mu.Unlock()
		close(t.doneCh)
	}
	return t, nil
}

// insertPendingLocked inserts keeping the (priority desc, seq asc)
// order.
func (q *Queue) insertPendingLocked(c *cell) {
	i := sort.Search(len(q.pending), func(i int) bool {
		p := q.pending[i]
		return p.prio < c.prio || (p.prio == c.prio && p.seq > c.seq)
	})
	q.pending = append(q.pending, nil)
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = c
	c.state = cellPending
}

func (q *Queue) removePendingLocked(c *cell) {
	for i, p := range q.pending {
		if p == c {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return
		}
	}
}

// notifyLocked wakes every LeaseWait sleeper.
func (q *Queue) notifyLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// Lease hands the worker a batch of up to max pending cells (highest
// priority first), or nil when nothing is pending. A replay cell pulls
// its entire pending group into the lease — possibly exceeding max —
// so one worker records the group's trace and replays every cell of
// it.
func (q *Queue) Lease(worker string, max int) *Lease {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.leaseLocked(worker, max)
}

// LeaseWait is Lease as a long poll: on an empty queue it parks until
// a submission or a requeue wakes it and leases then, returning nil
// only once wait has passed with nothing to lease, or ctx is done.
// Lazy expiry wakes no one: cells of a lease that expires during the
// wait go to the next Lease call.
func (q *Queue) LeaseWait(ctx context.Context, worker string, max int, wait time.Duration) *Lease {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		q.mu.Lock()
		l, wake := q.leaseLocked(worker, max), q.wake
		q.mu.Unlock()
		if l != nil {
			return l
		}
		select {
		case <-wake:
		case <-timer.C:
			return nil
		case <-ctx.Done():
			return nil
		}
	}
}

// leaseLocked is Lease with q.mu held.
func (q *Queue) leaseLocked(worker string, max int) *Lease {
	if max <= 0 {
		max = 1
	}
	q.expireLocked()
	q.workers[worker] = q.now()
	if len(q.pending) == 0 {
		return nil
	}
	q.leaseSeq++
	now := q.now()
	l := &lease{id: "lease-" + strconv.FormatInt(q.leaseSeq, 10), worker: worker, deadline: now.Add(q.ttl)}
	take := func(c *cell) {
		c.state = cellLeased
		c.leaseID = l.id
		c.leasedAt = now
		l.cells = append(l.cells, c)
	}
	groups := make(map[replayGroup]bool)
	for _, c := range q.pending {
		if len(l.cells) >= max && (c.group == nil || !groups[*c.group]) {
			break
		}
		if c.group != nil {
			if !groups[*c.group] && len(l.cells) > 0 {
				// A fresh replay group starts its own lease; mixing it
				// into a half-full direct batch would split groups
				// across leases on the next call.
				break
			}
			groups[*c.group] = true
		}
		take(c)
	}
	// Pull the rest of any started replay group, wherever it sits in
	// the pending order.
	if len(groups) > 0 {
		for _, c := range q.pending {
			if c.state != cellLeased && c.group != nil && groups[*c.group] {
				take(c)
			}
		}
	}
	// Remove the taken cells from pending.
	kept := q.pending[:0]
	for _, c := range q.pending {
		if c.state == cellPending {
			kept = append(kept, c)
		}
	}
	q.pending = kept
	q.leases[l.id] = l

	out := &Lease{ID: l.id, TTLMS: q.ttl.Milliseconds()}
	for _, c := range l.cells {
		out.Cells = append(out.Cells, LeaseCell{Key: c.key, Spec: c.spec})
		out.reqs = append(out.reqs, c.req)
	}
	return out
}

// Heartbeat extends a lease's deadline; false means the lease is gone
// (expired and reaped, or already completed) and the worker's results
// may be dropped as duplicates.
func (q *Queue) Heartbeat(id, worker string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	q.workers[worker] = q.now()
	l, ok := q.leases[id]
	if ok {
		l.deadline = q.now().Add(q.ttl)
	}
	return ok
}

// Complete accepts a worker's results for a lease. Results are matched
// to live cells by key, idempotently: keys that are unknown or no
// longer owned by any lease (already completed elsewhere) are dropped,
// never double-counted and never re-persisted. Cells of the lease
// missing from the report are requeued. Returns accepted and dropped
// counts.
func (q *Queue) Complete(id, worker string, results []CellResult) (accepted, dropped int) {
	type delivery struct {
		c   *cell
		res *core.Result
		err error
	}
	var deliveries []delivery

	q.mu.Lock()
	q.expireLocked()
	q.workers[worker] = q.now()
	l := q.leases[id]
	delete(q.leases, id)
	for _, r := range results {
		c := q.cells[r.Key]
		if c == nil || (c.state == cellLeased && c.leaseID != id) {
			// Unknown (already completed) or re-leased to a live worker
			// after this lease expired: the other completion wins.
			q.dupDropped++
			dropped++
			continue
		}
		if c.state == cellPending {
			// Expired and requeued, but not yet re-leased: this late
			// result is still perfectly good — accept it.
			q.removePendingLocked(c)
		}
		delete(q.cells, c.key)
		d := delivery{c: c}
		if r.Err != "" {
			d.err = fmt.Errorf("%s", r.Err)
			q.failed++
		} else if r.Result == nil {
			d.err = fmt.Errorf("fleet: worker %s reported cell %s with neither result nor error", worker, r.Key[:12])
			q.failed++
		} else {
			d.res = r.Result.Result(c.req)
		}
		q.completed++
		accepted++
		if !c.leasedAt.IsZero() {
			q.cellSeconds.Observe(q.now().Sub(c.leasedAt).Seconds())
		}
		deliveries = append(deliveries, d)
	}
	// Anything the lease held but the report omitted goes back in the
	// queue.
	if l != nil {
		requeued := false
		for _, c := range l.cells {
			if c.state == cellLeased && c.leaseID == id && q.cells[c.key] == c {
				c.leaseID = ""
				q.insertPendingLocked(c)
				q.requeued++
				requeued = true
			}
		}
		if requeued {
			q.notifyLocked()
		}
	}
	// Persist while still holding the lock: a completed cell must never
	// be simultaneously gone from the live table and absent from the
	// cache, or a straggling Submit (whose unlocked probe missed) would
	// re-enqueue it and the fleet would simulate — and persist — the
	// cell twice. Submit's under-lock re-probe plus this ordering make
	// "store Puts == distinct cells" hold unconditionally.
	for _, d := range deliveries {
		if d.err == nil && q.cache != nil {
			if perr := q.cache.Put(d.c.req, d.res); perr != nil && q.onPutError != nil {
				q.onPutError(d.c.req, perr)
			}
		}
	}
	q.mu.Unlock()

	// Fan out after dropping the queue lock: deliver takes ticket locks.
	for _, d := range deliveries {
		for _, w := range d.c.waiters {
			w.t.deliver(w.idx, d.res, d.err)
		}
	}
	return accepted, dropped
}

// expireLocked reaps leases past their deadline, requeuing their
// cells.
func (q *Queue) expireLocked() {
	now := q.now()
	requeued := false
	for id, l := range q.leases {
		if !l.deadline.Before(now) {
			continue
		}
		delete(q.leases, id)
		for _, c := range l.cells {
			if c.state == cellLeased && c.leaseID == id && q.cells[c.key] == c {
				c.leaseID = ""
				q.insertPendingLocked(c)
				q.requeued++
				requeued = true
			}
		}
	}
	if requeued {
		q.notifyLocked()
	}
}

// Stats snapshots the queue.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	s := Stats{
		Pending:     len(q.pending),
		Leased:      len(q.cells) - len(q.pending),
		Leases:      len(q.leases),
		Submissions: q.submissions,
		CellsSeen:   q.cellsSeen,
		CacheHits:   q.cacheHits,
		DedupHits:   q.dedupHits,
		Completed:   q.completed,
		Failed:      q.failed,
		Requeued:    q.requeued,
		DupDropped:  q.dupDropped,
		MaxPending:  q.maxPending,
		LeaseTTLMS:  q.ttl.Milliseconds(),
	}
	for name, seen := range q.workers {
		s.Workers = append(s.Workers, WorkerInfo{Name: name, LastSeen: seen})
	}
	sort.Slice(s.Workers, func(i, j int) bool {
		if !s.Workers[i].LastSeen.Equal(s.Workers[j].LastSeen) {
			return s.Workers[i].LastSeen.After(s.Workers[j].LastSeen)
		}
		return s.Workers[i].Name < s.Workers[j].Name
	})
	return s
}
