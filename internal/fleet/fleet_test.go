package fleet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// tinyReqs builds a small request list over the tiny workload pool:
// nWorkloads × {A53} × {plain, auto}.
func tinyReqs(t *testing.T, nWorkloads int, exec core.ExecMode) ([]sweep.Request, []CellSpec) {
	t.Helper()
	pool := tinyPool()
	if nWorkloads > len(pool) {
		t.Fatalf("want %d workloads, tiny pool has %d", nWorkloads, len(pool))
	}
	g := sweep.Grid{
		Workloads: pool[:nWorkloads],
		Systems:   []*sim.Config{uarch.A53()},
		Variants:  []core.Variant{core.VariantPlain, core.VariantAuto},
		Options:   core.Options{C: 8},
		Execs:     []core.ExecMode{exec},
	}
	reqs := g.Expand()
	specs := make([]CellSpec, len(reqs))
	for i, r := range reqs {
		sp, err := SpecFor("tiny", r)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = sp
	}
	return reqs, specs
}

// The tiny pool is constructed once — building workloads generates
// input data.
var tinyPool = sync.OnceValue(workloads.Tiny)

// fakeResult fabricates a distinct result payload for a cell.
func fakeResult(i int) *ResultData {
	return &ResultData{Checksum: int64(1000 + i), Cycles: float64(i) + 0.5}
}

// completeAll leases everything with one worker and completes each
// lease with fabricated results; returns distinct cells completed.
func completeAll(t *testing.T, q *Queue, worker string) int {
	t.Helper()
	n := 0
	for {
		l := q.Lease(worker, 64)
		if l == nil {
			return n
		}
		var res []CellResult
		for i, c := range l.Cells {
			res = append(res, CellResult{Key: c.Key, Result: fakeResult(n + i)})
		}
		acc, dropped := q.Complete(l.ID, worker, res)
		if acc != len(res) || dropped != 0 {
			t.Fatalf("Complete accepted %d dropped %d, want %d/0", acc, dropped, len(res))
		}
		n += acc
	}
}

// TestSubmitDedupe: overlapping submissions share cells; each ticket
// still gets every outcome, and the queue completes each distinct cell
// once.
func TestSubmitDedupe(t *testing.T) {
	q := New(Options{})
	reqs, specs := tinyReqs(t, 2, core.ExecDirect)

	t1, err := q.Submit(reqs, specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := q.Submit(reqs, specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Pending != len(reqs) || st.DedupHits != int64(len(reqs)) {
		t.Fatalf("after overlap: pending %d dedup %d, want %d/%d", st.Pending, st.DedupHits, len(reqs), len(reqs))
	}

	if n := completeAll(t, q, "w1"); n != len(reqs) {
		t.Fatalf("completed %d distinct cells, want %d", n, len(reqs))
	}
	for _, tk := range []*Ticket{t1, t2} {
		select {
		case <-tk.Done():
		default:
			t.Fatal("ticket not finished after completing every cell")
		}
		set, ok := tk.ResultSet()
		if !ok || len(set.Outcomes) != len(reqs) {
			t.Fatalf("result set not available: ok=%v", ok)
		}
		if err := set.Err(); err != nil {
			t.Fatal(err)
		}
	}
	s1, _ := t1.ResultSet()
	s2, _ := t2.ResultSet()
	for i := range s1.Outcomes {
		if s1.Outcomes[i].Result != s2.Outcomes[i].Result {
			t.Fatalf("outcome %d: tickets did not share the single computed result", i)
		}
	}
}

// TestPriorities: higher-priority submissions lease first; FIFO within
// a priority; a shared cell is promoted to the highest priority asked.
func TestPriorities(t *testing.T) {
	q := New(Options{})
	reqs, specs := tinyReqs(t, 3, core.ExecDirect)

	lo := reqs[:2]
	hi := reqs[2:4]
	promoted := reqs[:1] // resubmitted at high priority below

	if _, err := q.Submit(lo, specs[:2], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(hi, specs[2:4], 5); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(promoted, specs[:1], 9); err != nil {
		t.Fatal(err)
	}

	want := []string{KeyOf(promoted[0]), KeyOf(hi[0]), KeyOf(hi[1]), KeyOf(lo[1])}
	var got []string
	for {
		l := q.Lease("w", 1)
		if l == nil {
			break
		}
		for _, c := range l.Cells {
			got = append(got, c.Key)
		}
		var res []CellResult
		for _, c := range l.Cells {
			res = append(res, CellResult{Key: c.Key, Result: fakeResult(0)})
		}
		q.Complete(l.ID, "w", res)
	}
	if len(got) != len(want) {
		t.Fatalf("leased %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lease order[%d] = %s, want %s", i, got[i][:12], want[i][:12])
		}
	}
}

// TestQueueFull: admission is atomic — a submission over the bound
// enqueues nothing, and the error names the numbers.
func TestQueueFull(t *testing.T) {
	q := New(Options{MaxPending: 2})
	reqs, specs := tinyReqs(t, 2, core.ExecDirect) // 4 cells
	_, err := q.Submit(reqs, specs, 0)
	var full ErrQueueFull
	if !errors.As(err, &full) {
		t.Fatalf("Submit over bound = %v, want ErrQueueFull", err)
	}
	if full.Limit != 2 || full.New != 4 || full.Live != 0 {
		t.Fatalf("ErrQueueFull fields wrong: %+v", full)
	}
	if st := q.Stats(); st.Pending != 0 {
		t.Fatalf("failed submission enqueued %d cells", st.Pending)
	}

	// Under the bound it admits; a duplicate submission adds no load
	// and is admitted even at the bound.
	if _, err := q.Submit(reqs[:2], specs[:2], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(reqs[:2], specs[:2], 0); err != nil {
		t.Fatalf("duplicate submission rejected at the bound: %v", err)
	}
	if _, err := q.Submit(reqs[2:3], specs[2:3], 0); err == nil {
		t.Fatal("submission adding a cell past the bound accepted")
	}
}

// TestLeaseExpiryRequeues: a dead worker's cells return to the queue
// after TTL; its late completion is dropped, the re-lease's accepted —
// each cell delivered exactly once.
func TestLeaseExpiryRequeues(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	q := New(Options{LeaseTTL: time.Second, Now: clock})
	reqs, specs := tinyReqs(t, 1, core.ExecDirect)

	tk, err := q.Submit(reqs, specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	dead := q.Lease("dead", 64)
	if dead == nil || len(dead.Cells) != len(reqs) {
		t.Fatalf("first lease missing cells: %+v", dead)
	}
	if q.Lease("live", 64) != nil {
		t.Fatal("second worker leased cells that are already out")
	}

	now = now.Add(1500 * time.Millisecond) // past TTL
	release := q.Lease("live", 64)
	if release == nil || len(release.Cells) != len(reqs) {
		t.Fatalf("expired cells not re-leased: %+v", release)
	}
	if st := q.Stats(); st.Requeued != int64(len(reqs)) {
		t.Fatalf("requeued = %d, want %d", st.Requeued, len(reqs))
	}

	// The dead worker wakes up and reports anyway: all dropped.
	var late []CellResult
	for i, c := range dead.Cells {
		late = append(late, CellResult{Key: c.Key, Result: fakeResult(i)})
	}
	if acc, dropped := q.Complete(dead.ID, "dead", late); acc != 0 || dropped != len(reqs) {
		t.Fatalf("late completion accepted %d dropped %d, want 0/%d", acc, dropped, len(reqs))
	}

	var res []CellResult
	for i, c := range release.Cells {
		res = append(res, CellResult{Key: c.Key, Result: fakeResult(100 + i)})
	}
	if acc, dropped := q.Complete(release.ID, "live", res); acc != len(reqs) || dropped != 0 {
		t.Fatalf("re-lease completion accepted %d dropped %d", acc, dropped)
	}
	select {
	case <-tk.Done():
	default:
		t.Fatal("ticket unfinished after re-lease completion")
	}
	set, _ := tk.ResultSet()
	for i := range set.Outcomes {
		if set.Outcomes[i].Result == nil || set.Outcomes[i].Result.Checksum < 1100 {
			t.Fatalf("outcome %d did not come from the live worker: %+v", i, set.Outcomes[i].Result)
		}
	}
}

// TestLeaseWait: a long-polled lease on an empty queue wakes on a
// submission and on a requeue, and otherwise gives up only after the
// whole wait — or as soon as its context is done.
func TestLeaseWait(t *testing.T) {
	q := New(Options{})
	reqs, specs := tinyReqs(t, 1, core.ExecDirect)

	start := time.Now()
	if l := q.LeaseWait(context.Background(), "w", 64, 50*time.Millisecond); l != nil {
		t.Fatalf("empty queue leased %+v", l)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Errorf("empty long poll gave up after %v, want the whole 50ms", waited)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start = time.Now()
	if l := q.LeaseWait(ctx, "w", 64, time.Minute); l != nil || time.Since(start) > 30*time.Second {
		t.Errorf("cancelled long poll = %+v after %v, want nil at once", l, time.Since(start))
	}

	// A submission wakes the parked poll; a partial completion's
	// requeue wakes the next one.
	got := make(chan *Lease)
	go func() { got <- q.LeaseWait(context.Background(), "w", 64, time.Minute) }()
	time.Sleep(10 * time.Millisecond)
	if _, err := q.Submit(reqs, specs, 0); err != nil {
		t.Fatal(err)
	}
	l := <-got
	if l == nil || len(l.Cells) != len(reqs) {
		t.Fatalf("long poll after submit leased %+v, want %d cells", l, len(reqs))
	}
	go func() { got <- q.LeaseWait(context.Background(), "w2", 64, time.Minute) }()
	time.Sleep(10 * time.Millisecond)
	q.Complete(l.ID, "w", []CellResult{{Key: l.Cells[0].Key, Result: fakeResult(0)}})
	if l2 := <-got; l2 == nil || len(l2.Cells) != len(reqs)-1 {
		t.Fatalf("long poll after requeue leased %+v, want %d cells", l2, len(reqs)-1)
	}
}

// TestHeartbeatKeepsLease: heartbeats extend the deadline, and an
// expired lease answers false.
func TestHeartbeatKeepsLease(t *testing.T) {
	now := time.Unix(0, 0)
	q := New(Options{LeaseTTL: time.Second, Now: func() time.Time { return now }})
	reqs, specs := tinyReqs(t, 1, core.ExecDirect)
	if _, err := q.Submit(reqs, specs, 0); err != nil {
		t.Fatal(err)
	}
	l := q.Lease("w", 64)
	for i := 0; i < 5; i++ {
		now = now.Add(700 * time.Millisecond)
		if !q.Heartbeat(l.ID, "w") {
			t.Fatalf("heartbeat %d lost a live lease", i)
		}
	}
	if st := q.Stats(); st.Requeued != 0 {
		t.Fatalf("heartbeated lease requeued %d cells", st.Requeued)
	}
	now = now.Add(2 * time.Second)
	if q.Heartbeat(l.ID, "w") {
		t.Fatal("heartbeat revived an expired lease")
	}
}

// TestReplayGroupLeasing: replay cells lease as whole (workload,
// variant, options) groups even when max is smaller, so one worker
// records each trace.
func TestReplayGroupLeasing(t *testing.T) {
	q := New(Options{})
	pool := tinyPool()
	g := sweep.Grid{
		Workloads: pool[:1],
		Systems:   uarch.All(), // 4 systems → group size 4 per variant
		Variants:  []core.Variant{core.VariantPlain, core.VariantAuto},
		Options:   core.Options{C: 8},
		Execs:     []core.ExecMode{core.ExecReplay},
	}
	reqs := g.Expand()
	specs := make([]CellSpec, len(reqs))
	for i, r := range reqs {
		sp, err := SpecFor("tiny", r)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = sp
	}
	if _, err := q.Submit(reqs, specs, 0); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		l := q.Lease("w", 1)
		if l == nil {
			t.Fatalf("round %d: no lease", round)
		}
		if len(l.Cells) != 4 {
			t.Fatalf("round %d: replay lease has %d cells, want the whole 4-cell group", round, len(l.Cells))
		}
		variant := l.Cells[0].Spec.Variant
		for _, c := range l.Cells {
			if c.Spec.Variant != variant || c.Spec.Workload != l.Cells[0].Spec.Workload {
				t.Fatalf("round %d: lease mixes replay groups: %+v", round, l.Cells)
			}
		}
		var res []CellResult
		for i, c := range l.Cells {
			res = append(res, CellResult{Key: c.Key, Result: fakeResult(i)})
		}
		q.Complete(l.ID, "w", res)
	}
	if l := q.Lease("w", 1); l != nil {
		t.Fatalf("queue not drained after two group leases: %+v", l)
	}
}

// countingCache records Get/Put traffic.
type countingCache struct {
	mu      sync.Mutex
	objects map[string]*core.Result
	puts    int
}

func (c *countingCache) Get(r sweep.Request) (*core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.objects[KeyOf(r)]
	return res, ok
}

func (c *countingCache) Put(r sweep.Request, res *core.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.objects == nil {
		c.objects = make(map[string]*core.Result)
	}
	c.objects[KeyOf(r)] = res
	c.puts++
	return nil
}

// TestCachePutOnce: completions persist each distinct cell exactly
// once, and a warm submission is answered entirely at submit time.
func TestCachePutOnce(t *testing.T) {
	cache := &countingCache{}
	q := New(Options{Cache: cache})
	reqs, specs := tinyReqs(t, 2, core.ExecDirect)

	// Two overlapping submissions, then drain.
	if _, err := q.Submit(reqs, specs, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(reqs, specs, 0); err != nil {
		t.Fatal(err)
	}
	completeAll(t, q, "w")
	if cache.puts != len(reqs) {
		t.Fatalf("cache saw %d puts for %d distinct cells", cache.puts, len(reqs))
	}

	// Warm: the ticket finishes inside Submit, no cells enqueued.
	tk, err := q.Submit(reqs, specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	default:
		t.Fatal("warm submission not finished at submit")
	}
	if st := q.Stats(); st.Pending != 0 || st.CacheHits != int64(len(reqs)) {
		t.Fatalf("warm submission: pending %d cacheHits %d", st.Pending, st.CacheHits)
	}
}

// TestPartialReportRequeues: cells a completion omits go back to the
// queue instead of being lost.
func TestPartialReportRequeues(t *testing.T) {
	q := New(Options{})
	reqs, specs := tinyReqs(t, 1, core.ExecDirect) // 2 cells
	tk, err := q.Submit(reqs, specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := q.Lease("w", 64)
	if len(l.Cells) != 2 {
		t.Fatalf("leased %d cells, want 2", len(l.Cells))
	}
	q.Complete(l.ID, "w", []CellResult{{Key: l.Cells[0].Key, Result: fakeResult(0)}})
	if st := q.Stats(); st.Pending != 1 || st.Requeued != 1 {
		t.Fatalf("omitted cell not requeued: %+v", st)
	}
	completeAll(t, q, "w")
	select {
	case <-tk.Done():
	default:
		t.Fatal("ticket unfinished after requeue drain")
	}
}

// TestErrorCellsFailWaiters: a cell completed with an error reaches
// every waiting ticket as that cell's error.
func TestErrorCellsFailWaiters(t *testing.T) {
	q := New(Options{})
	reqs, specs := tinyReqs(t, 1, core.ExecDirect)
	tk, err := q.Submit(reqs, specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := q.Lease("w", 64)
	var res []CellResult
	for _, c := range l.Cells {
		res = append(res, CellResult{Key: c.Key, Err: "simulated crash"})
	}
	q.Complete(l.ID, "w", res)
	<-tk.Done()
	set, _ := tk.ResultSet()
	if err := set.Err(); err == nil || !strings.Contains(err.Error(), "simulated crash") {
		t.Fatalf("ticket error = %v, want the worker's message", err)
	}
	if st := q.Stats(); st.Failed != int64(len(reqs)) {
		t.Fatalf("failed counter = %d, want %d", st.Failed, len(reqs))
	}
}

// TestCellSpecRoundTrip: a spec reconstructs a request with the same
// cell key on the worker side.
func TestCellSpecRoundTrip(t *testing.T) {
	reqs, specs := tinyReqs(t, 1, core.ExecReplay)
	resolve := func(quality, name string) (*sweep.Request, error) {
		if quality != "tiny" {
			t.Fatalf("resolver asked for quality %q", quality)
		}
		ws, err := sweep.SelectWorkloads(tinyPool(), name)
		if err != nil {
			return nil, err
		}
		return &sweep.Request{Workload: ws[0]}, nil
	}
	for i, sp := range specs {
		got, err := sp.Request(resolve)
		if err != nil {
			t.Fatal(err)
		}
		if KeyOf(got) != KeyOf(reqs[i]) {
			t.Fatalf("spec %d round-trips to a different cell key", i)
		}
		if got.Exec != core.ExecReplay {
			t.Fatalf("spec %d lost the exec mode: %q", i, got.Exec)
		}
	}
}

// TestSubscribeStreamsProgress: subscribers see monotonic counts ending
// in a Finished event; late subscribers see the terminal state.
func TestSubscribeStreamsProgress(t *testing.T) {
	q := New(Options{})
	reqs, specs := tinyReqs(t, 1, core.ExecDirect)
	tk, err := q.Submit(reqs, specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := tk.Subscribe()
	defer cancel()
	completeAll(t, q, "w")

	deadline := time.After(5 * time.Second)
	last := Progress{}
	for !last.Finished {
		select {
		case p := <-ch:
			if p.Done < last.Done {
				t.Fatalf("progress went backwards: %+v after %+v", p, last)
			}
			last = p
		case <-deadline:
			t.Fatal("no Finished event")
		}
	}
	if last.Done != len(reqs) || last.Total != len(reqs) {
		t.Fatalf("terminal progress %+v, want %d/%d", last, len(reqs), len(reqs))
	}

	late, cancelLate := tk.Subscribe()
	defer cancelLate()
	select {
	case p := <-late:
		if !p.Finished {
			t.Fatalf("late subscriber saw %+v, want Finished", p)
		}
	default:
		t.Fatal("late subscriber saw nothing")
	}
}
