// Fleet worker mode: `swpfd -worker http://coordinator:8077` turns the
// process into a cell executor. The loop is lease → reconstruct →
// execute → complete, with heartbeats keeping the lease alive while a
// batch runs; the coordinator owns all bookkeeping (dedupe,
// persistence, result fan-out), so a worker holds no state worth
// preserving — kill it any time and its leased cells return to the
// queue when the lease expires.
//
// Workers reconstruct cells from wire specs (internal/fleet.CellSpec):
// the machine configuration travels in full, the workload is resolved
// by (quality, name) out of the worker's own memoized pools and
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
	w := &fleetWorker{
		coordinator: coordinator,
		name:        name,
		jobs:        jobs,
		batch:       batch,
		client:      &http.Client{Timeout: 30 * time.Second},
		log:         log.With("worker", name),
	}
	w.run(context.Background())
	return nil
}

// run drives jobs lease loops (0 = GOMAXPROCS) under the one worker
// name until ctx is done. Each loop runs its leases on a jobs-wide
// sweep.Runner, so one loop's round trips and slowest cell overlap
// another's simulation while a lone replay group still spreads over
// every CPU. Each lease request long-polls, so an idle worker starts
// on a submission at once; coordinator outages are retried with capped
// exponential backoff — a worker outlives coordinator restarts.
func (w *fleetWorker) run(ctx context.Context) {
	loops := w.jobs
	if loops <= 0 {
		loops = runtime.GOMAXPROCS(0)
	}
	w.log.Info("pulling", "coordinator", w.coordinator, "loops", loops)
	var wg sync.WaitGroup
	for range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			backoff := 100 * time.Millisecond
			for ctx.Err() == nil {
				start := time.Now()
				l, rid, err := w.lease()
				if err != nil {
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

type fleetWorker struct {
	coordinator string
	name        string
	jobs        int
	batch       int
	client      *http.Client
	log         *slog.Logger
}

// post sends one JSON request and decodes the JSON reply into out
// (skipped when out is nil or the reply is 204). A non-empty rid
// travels as the request-ID header, so the coordinator's access log
// correlates the call with the lease that started the work; the
// returned rid is whatever ID the coordinator stamped on the response.
func (w *fleetWorker) post(path, rid string, in, out any) (int, string, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, "", err
	}
	req, err := http.NewRequest(http.MethodPost, w.coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set(obs.RequestIDHeader, rid)
	}
	resp, err := w.client.Do(req)
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

// lease long-polls for a batch; a nil lease means nothing became
// pending within the wait. The returned rid is the coordinator's ID
// for the lease request — the worker logs the batch's execution under
// it and sends it back on complete, tying both sides of the cell
// lifecycle together.
func (w *fleetWorker) lease() (*fleet.Lease, string, error) {
	var l fleet.Lease
	code, rid, err := w.post("/fleet/lease", "", LeaseRequest{Worker: w.name, Max: w.batch, WaitMS: leaseWait.Milliseconds()}, &l)
	if err != nil {
		return nil, rid, err
	}
	if code == http.StatusNoContent {
		return nil, rid, nil
	}
	return &l, rid, nil
}

// execute reconstructs a lease's cells, runs them, and reports every
// cell — results for the runnable ones, errors for the rest — while a
// background heartbeat keeps the lease alive. The whole batch logs
// under rid, the coordinator's ID for the lease request.
func (w *fleetWorker) execute(l *fleet.Lease, rid string) error {
	log := w.log.With("rid", rid, "lease", l.ID)
	log.Info("lease", "cells", len(l.Cells), "ttl", l.TTL().String())
	stop := keepAlive(l.TTL(), func() bool {
		var hb struct {
			OK bool `json:"ok"`
		}
		_, _, err := w.post("/fleet/heartbeat", rid, HeartbeatRequest{Lease: l.ID, Worker: w.name}, &hb)
		// Lease gone (expired and re-leased elsewhere): stop beating but
		// keep computing — the completion is reported anyway and the
		// coordinator drops whatever the re-lease already answered.
		return err != nil || hb.OK
	})
	defer stop()

	results := make([]fleet.CellResult, len(l.Cells))
	var reqs []sweep.Request
	var reqIdx []int
	for i, c := range l.Cells {
		results[i] = fleet.CellResult{Key: c.Key}
		req, err := c.Spec.Request(resolveWorkload)
		if err != nil {
			results[i].Err = err.Error()
			continue
		}
		reqs = append(reqs, req)
		reqIdx = append(reqIdx, i)
	}
	start := time.Now()
	if len(reqs) > 0 {
		// No cache: the coordinator probed its store at submission and
		// persists completions; replay groups lease whole, so trace
		// amortization happens in-memory within this Execute call.
		set, _ := sweep.Runner{Jobs: w.jobs}.Execute(reqs)
		for n, o := range set.Outcomes {
			i := reqIdx[n]
			if o.Err != nil {
				results[i].Err = o.Err.Error()
			} else {
				d := fleet.ResultDataOf(o.Result)
				results[i].Result = &d
			}
		}
	}
	elapsed := time.Since(start).Round(time.Microsecond)
	for _, res := range results {
		log.Debug("cell", "key", res.Key, "err", res.Err)
	}
	log.Info("execute", "cells", len(l.Cells), "dur", elapsed.String())

	var rep struct {
		Accepted int `json:"accepted"`
		Dropped  int `json:"dropped"`
	}
	if _, _, err := w.post("/fleet/complete", rid, CompleteRequest{Lease: l.ID, Worker: w.name, Results: results}, &rep); err != nil {
		return fmt.Errorf("reporting lease %s: %w", l.ID, err)
	}
	log.Info("complete", "accepted", rep.Accepted, "dropped", rep.Dropped, "dur", elapsed.String())
	if rep.Dropped > 0 {
		log.Warn("duplicate cells dropped by coordinator", "dropped", rep.Dropped)
	}
	return nil
}
