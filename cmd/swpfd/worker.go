// Fleet workers. Every worker — `swpfd -worker http://coordinator:8077`
// and the daemon's own -local-workers alike — runs one loop: lease →
// reconstruct → execute → complete, with heartbeats keeping the lease
// alive while a batch runs. Only the transport differs: a worker
// process talks HTTP to its coordinator, an in-process worker calls
// the daemon's queue. The coordinator owns all bookkeeping (dedupe,
// persistence, result fan-out), so a worker holds no state worth
// preserving — kill it any time and its leased cells return to the
// queue when the lease expires.
//
// Workers reconstruct cells from wire specs (internal/fleet.CellSpec):
// the machine configuration travels in full, the workload is resolved
// by (quality, name) out of the process's memoized pools and
// cross-checked against the coordinator's parameter string, so a
// version-skewed worker fails the cell loudly instead of silently
// computing the wrong one.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// workerBackoffMax caps the reconnect backoff after coordinator
// errors.
const workerBackoffMax = 5 * time.Second

// resolveWorkload is the fleet.WorkloadResolver backed by the daemon's
// memoized pools — the same pools submission validation uses, so
// coordinator and worker agree on every name.
func resolveWorkload(quality, name string) (*sweep.Request, error) {
	pool, err := poolFor(quality)
	if err != nil {
		return nil, err
	}
	for _, wl := range pool {
		if wl.Name == name {
			return &sweep.Request{Workload: wl}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q in the %s pool", name, quality)
}

// coordinator is the three calls a worker loop makes, over HTTP
// (httpCoordinator) or straight into the daemon's queue
// (queueCoordinator).
type coordinator interface {
	// lease long-polls for a batch of at most max cells; a nil lease
	// means nothing became pending within the wait. rid is the
	// coordinator's ID for the lease request ("" in process).
	lease(ctx context.Context, worker string, max int) (l *fleet.Lease, rid string, err error)
	// heartbeat extends a lease; false means it is gone.
	heartbeat(lease, worker, rid string) bool
	// complete reports a lease's results.
	complete(lease, worker, rid string, results []fleet.CellResult) (accepted, dropped int, err error)
}

// worker runs loops lease loops under one name. Each loop runs its
// leases on runner, so one loop's round trips and slowest cell overlap
// another's simulation while a lone replay group still spreads over
// every CPU.
type worker struct {
	name   string
	loops  int
	batch  int
	coord  coordinator
	runner sweep.Runner
	log    *slog.Logger
	// level is the level of the per-lease log lines: Info in a worker
	// process, Debug in process, so a daemon's default log keeps to its
	// access lines.
	level slog.Level
}

// runWorker is the worker-mode main: it runs the worker's lease loops
// until killed.
func runWorker(coordinator, name string, jobs, batch int, log *slog.Logger) error {
	coordinator = strings.TrimRight(coordinator, "/")
	if !strings.Contains(coordinator, "://") {
		return fmt.Errorf("-worker %q is not an absolute coordinator URL", coordinator)
	}
	if name == "" {
		name = fmt.Sprintf("swpfd-%d", os.Getpid())
	}
	w := httpWorker(coordinator, name, jobs, batch, log)
	w.log.Info("pulling", "coordinator", coordinator, "loops", w.loops)
	w.run(context.Background())
	return nil
}

// httpWorker builds a worker process's worker: jobs lease loops (0 =
// GOMAXPROCS), each running its leases jobs wide, against the
// coordinator at url.
func httpWorker(url, name string, jobs, batch int, log *slog.Logger) *worker {
	loops := jobs
	if loops <= 0 {
		loops = runtime.GOMAXPROCS(0)
	}
	return &worker{
		name:   name,
		loops:  loops,
		batch:  batch,
		coord:  &httpCoordinator{url: url, client: &http.Client{Timeout: 30 * time.Second}},
		runner: sweep.Runner{Jobs: jobs},
		log:    log.With("worker", name),
		level:  slog.LevelInfo,
	}
}

// run drives the worker's lease loops until ctx is done. Each lease
// request long-polls, so an idle worker starts on a submission at
// once; coordinator outages are retried with capped exponential
// backoff — a worker outlives coordinator restarts.
func (w *worker) run(ctx context.Context) {
	var wg sync.WaitGroup
	for range w.loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			backoff := 100 * time.Millisecond
			for ctx.Err() == nil {
				start := time.Now()
				l, rid, err := w.coord.lease(ctx, w.name, w.batch)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					w.log.Warn("lease failed", "err", err, "backoff", backoff.String())
					time.Sleep(backoff)
					backoff = min(2*backoff, workerBackoffMax)
					continue
				}
				backoff = 100 * time.Millisecond
				if l == nil {
					// A 204 before the wait is up comes from a
					// coordinator that ignores wait_ms: poll at the
					// wait's pace instead of spinning.
					time.Sleep(leaseWait - time.Since(start))
					continue
				}
				if err := w.execute(l, rid); err != nil {
					w.log.Warn("execute failed", "rid", rid, "err", err)
				}
			}
		}()
	}
	wg.Wait()
}

// execute reconstructs a lease's cells, runs them, and reports every
// cell — results for the runnable ones, errors for the rest — while a
// background heartbeat keeps the lease alive. The whole batch logs
// under rid, the coordinator's ID for the lease request.
func (w *worker) execute(l *fleet.Lease, rid string) error {
	log := w.log.With("rid", rid, "lease", l.ID)
	log.Log(context.Background(), w.level, "lease", "cells", len(l.Cells), "ttl", l.TTL().String())
	stop := keepAlive(l.TTL(), func() bool { return w.coord.heartbeat(l.ID, w.name, rid) })
	defer stop()

	results := make([]fleet.CellResult, len(l.Cells))
	var reqs []sweep.Request
	var reqIdx []int
	// One config per distinct machine, so the lease's cells on it share
	// one simulator in each sweep worker.
	systems := make(map[string]*sim.Config)
	for i, c := range l.Cells {
		results[i] = fleet.CellResult{Key: c.Key}
		req, err := c.Spec.Request(resolveWorkload)
		if err != nil {
			results[i].Err = err.Error()
			continue
		}
		if cfg, ok := systems[string(c.Spec.System)]; ok {
			req.System = cfg
		} else {
			systems[string(c.Spec.System)] = req.System
		}
		reqs = append(reqs, req)
		reqIdx = append(reqIdx, i)
	}
	start := time.Now()
	if len(reqs) > 0 {
		// The runner caches traces at most: the coordinator probed its
		// store at submission and persists completions, and replay
		// groups lease whole, so trace amortization happens within this
		// Execute call.
		set, _ := w.runner.Execute(reqs)
		for n, o := range set.Outcomes {
			i := reqIdx[n]
			if o.Err != nil {
				results[i].Err = o.Err.Error()
			} else {
				results[i].Result = &o.Result.Snapshot
			}
		}
	}
	elapsed := time.Since(start).Round(time.Microsecond)
	for _, res := range results {
		log.Debug("cell", "key", res.Key, "err", res.Err)
	}
	log.Log(context.Background(), w.level, "execute", "cells", len(l.Cells), "dur", elapsed.String())

	accepted, dropped, err := w.coord.complete(l.ID, w.name, rid, results)
	if err != nil {
		return fmt.Errorf("reporting lease %s: %w", l.ID, err)
	}
	log.Log(context.Background(), w.level, "complete", "accepted", accepted, "dropped", dropped, "dur", elapsed.String())
	if dropped > 0 {
		log.Warn("duplicate cells dropped by coordinator", "dropped", dropped)
	}
	return nil
}

// queueCoordinator is the in-process transport: the daemon's own
// queue, no wire in between.
type queueCoordinator struct{ q *fleet.Queue }

func (c queueCoordinator) lease(ctx context.Context, worker string, max int) (*fleet.Lease, string, error) {
	return c.q.LeaseWait(ctx, worker, max, leaseWait), "", nil
}

func (c queueCoordinator) heartbeat(lease, worker, _ string) bool {
	return c.q.Heartbeat(lease, worker)
}

func (c queueCoordinator) complete(lease, worker, _ string, results []fleet.CellResult) (int, int, error) {
	accepted, dropped := c.q.Complete(lease, worker, results)
	return accepted, dropped, nil
}

// httpCoordinator is a worker process's transport: the fleet API of
// the coordinator at url.
type httpCoordinator struct {
	url    string
	client *http.Client
}

// post sends one JSON request and decodes the JSON reply into out
// (skipped when out is nil or the reply is 204). A non-empty rid
// travels as the request-ID header, so the coordinator's access log
// correlates the call with the lease that started the work; the
// returned rid is whatever ID the coordinator stamped on the response.
func (c *httpCoordinator) post(ctx context.Context, path, rid string, in, out any) (int, string, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set(obs.RequestIDHeader, rid)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	respRID := resp.Header.Get(obs.RequestIDHeader)
	if resp.StatusCode == http.StatusNoContent || out == nil {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, respRID, nil
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, respRID, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp.StatusCode, respRID, json.NewDecoder(resp.Body).Decode(out)
}

// lease long-polls POST /fleet/lease. The returned rid is the
// coordinator's ID for the lease request — the worker logs the batch's
// execution under it and sends it back on heartbeat and complete,
// tying both sides of the cell lifecycle together.
func (c *httpCoordinator) lease(ctx context.Context, worker string, max int) (*fleet.Lease, string, error) {
	var l fleet.Lease
	code, rid, err := c.post(ctx, "/fleet/lease", "", LeaseRequest{Worker: worker, Max: max, WaitMS: leaseWait.Milliseconds()}, &l)
	if err != nil || code == http.StatusNoContent {
		return nil, rid, err
	}
	return &l, rid, nil
}

// heartbeat reports the lease gone only when the coordinator says so:
// on a transport error it keeps beating, and a worker whose lease was
// re-leased elsewhere keeps computing — its completion is reported
// anyway and the coordinator drops whatever the re-lease answered.
func (c *httpCoordinator) heartbeat(lease, worker, rid string) bool {
	var hb struct {
		OK bool `json:"ok"`
	}
	_, _, err := c.post(context.Background(), "/fleet/heartbeat", rid, HeartbeatRequest{Lease: lease, Worker: worker}, &hb)
	return err != nil || hb.OK
}

func (c *httpCoordinator) complete(lease, worker, rid string, results []fleet.CellResult) (int, int, error) {
	var rep struct {
		Accepted int `json:"accepted"`
		Dropped  int `json:"dropped"`
	}
	_, _, err := c.post(context.Background(), "/fleet/complete", rid, CompleteRequest{Lease: lease, Worker: worker, Results: results}, &rep)
	return rep.Accepted, rep.Dropped, err
}
