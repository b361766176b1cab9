package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/sweep"
)

// tinySpec is the grid the end-to-end tests submit: tiny workload
// sizes, two workloads, one system, the baseline variant pair.
var tinySpec = `{"workloads":"IS,CG","systems":"A53","variants":"plain,auto","c":16,"quality":"tiny"}`

// submit POSTs a spec and returns the job id and cell count.
func submit(t *testing.T, ts *httptest.Server, spec string) (string, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweep = %d", resp.StatusCode)
	}
	var out struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID, out.Cells
}

// poll waits for the job to reach a terminal state and returns its
// final status.
func poll(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == stateDone || st.State == stateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running: %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetch GETs a path and returns status code and body.
func fetch(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestEndToEnd drives the daemon through the full protocol, cold and
// warm: submit a tiny grid, poll to completion, and require the
// returned result sets — JSON and CSV — to be byte-identical to a
// direct sweep.Runner execution of the same grid. The warm pass must
// be served entirely from the store.
func TestEndToEnd(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(2, st))
	defer ts.Close()

	// Reference: the same spec executed directly by the engine.
	var spec SweepSpec
	if err := json.Unmarshal([]byte(tinySpec), &spec); err != nil {
		t.Fatal(err)
	}
	grid, err := spec.ToGrid()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sweep.Runner{Jobs: 2}.Execute(grid.Expand())
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON, wantCSV bytes.Buffer
	if err := direct.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := direct.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}

	for _, pass := range []string{"cold", "warm"} {
		id, cells := submit(t, ts, tinySpec)
		if cells != len(grid.Expand()) {
			t.Fatalf("%s: submitted %d cells, want %d", pass, cells, len(grid.Expand()))
		}
		if pass == "warm" {
			// Every cell is a store hit, so the job is finished before
			// POST /sweep replies: its results are there without a poll.
			code, body := fetch(t, ts, "/results?id="+id)
			if code != http.StatusOK {
				t.Fatalf("warm: GET /results before poll = %d: %s", code, body)
			}
			if !bytes.Equal(body, wantJSON.Bytes()) {
				t.Errorf("warm: JSON results before poll differ from direct run:\n%s", body)
			}
		}
		final := poll(t, ts, id)
		if final.State != stateDone || final.Done != cells || final.Error != "" {
			t.Fatalf("%s: job finished badly: %+v", pass, final)
		}

		code, body := fetch(t, ts, "/results?id="+id)
		if code != http.StatusOK {
			t.Fatalf("%s: GET /results = %d: %s", pass, code, body)
		}
		if !bytes.Equal(body, wantJSON.Bytes()) {
			t.Errorf("%s: JSON results differ from direct run:\n%s\nvs\n%s", pass, body, wantJSON.Bytes())
		}
		code, body = fetch(t, ts, "/results?id="+id+"&format=csv")
		if code != http.StatusOK {
			t.Fatalf("%s: GET /results csv = %d", pass, code)
		}
		if !bytes.Equal(body, wantCSV.Bytes()) {
			t.Errorf("%s: CSV results differ from direct run:\n%s\nvs\n%s", pass, body, wantCSV.Bytes())
		}
	}

	// The second submission must have been pure cache traffic.
	if stats := st.Stats(); stats.Hits < int64(len(grid.Expand())) {
		t.Errorf("warm pass hit the store only %d times, want >= %d", stats.Hits, len(grid.Expand()))
	}

	// The job listing shows both runs, newest last.
	code, body := fetch(t, ts, "/jobs")
	if code != http.StatusOK {
		t.Fatalf("GET /jobs = %d", code)
	}
	var list []JobStatus
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != "job-1" || list[1].ID != "job-2" {
		t.Errorf("job listing wrong: %+v", list)
	}
}

// TestBadRequests covers submission-time validation and the error
// paths of the read endpoints.
func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(newServer(1, nil))
	defer ts.Close()

	for _, body := range []string{
		`{"workloads":"nope","quality":"tiny"}`,
		`{"systems":"M4","quality":"tiny"}`,
		`{"variants":"jit","quality":"tiny"}`,
		`{"quality":"huge"}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}

	if code, _ := fetch(t, ts, "/jobs/job-99"); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if code, _ := fetch(t, ts, "/results?id=job-99"); code != http.StatusNotFound {
		t.Errorf("unknown job results = %d, want 404", code)
	}

	// A running or queued-format error: results for a finished job in
	// an unknown format.
	id, _ := submit(t, ts, `{"workloads":"IS","systems":"A53","variants":"plain","quality":"tiny"}`)
	poll(t, ts, id)
	if code, _ := fetch(t, ts, "/results?id="+id+"&format=xml"); code != http.StatusBadRequest {
		t.Errorf("unknown format = %d, want 400", code)
	}
}

// TestMeta: GET /meta enumerates every grid axis, and the hwpf spec
// field both validates and changes what a sweep runs.
func TestMeta(t *testing.T) {
	ts := httptest.NewServer(newServer(1, nil))
	defer ts.Close()

	code, body := fetch(t, ts, "/meta?quality=tiny")
	if code != http.StatusOK {
		t.Fatalf("GET /meta = %d: %s", code, body)
	}
	var m Meta
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Qualities) != 4 || len(m.Workloads["tiny"]) == 0 {
		t.Errorf("meta workloads wrong: %+v", m)
	}
	if len(m.Workloads) != 1 {
		t.Errorf("quality filter ignored: listed %d pools", len(m.Workloads))
	}
	if m.Workloads["tiny"][0].Params == "" {
		t.Error("meta omits workload params")
	}
	if len(m.Systems) != 4 || m.Systems[0].HWPF != "stride" {
		t.Errorf("meta systems wrong: %+v", m.Systems)
	}
	if len(m.Variants) != 5 {
		t.Errorf("meta variants wrong: %v", m.Variants)
	}
	// default + none,stride,nextline,ghb,imp.
	if len(m.HWPrefetchers) != 6 || m.HWPrefetchers[0].Name != "default" {
		t.Errorf("meta hwprefetchers wrong: %+v", m.HWPrefetchers)
	}
	for _, hw := range m.HWPrefetchers {
		if hw.Description == "" {
			t.Errorf("model %s lacks a description", hw.Name)
		}
	}
	// default + interval,ooo,inorder.
	if len(m.Cores) != 4 || m.Cores[0].Name != "default" {
		t.Errorf("meta cores wrong: %+v", m.Cores)
	}
	for _, c := range m.Cores {
		if c.Description == "" {
			t.Errorf("core model %s lacks a description", c.Name)
		}
	}
	if m.Systems[0].Core != "interval" {
		t.Errorf("meta system core default wrong: %+v", m.Systems[0])
	}
	if len(m.Execs) != 2 || m.Execs[0] != "direct" || m.Execs[1] != "replay" {
		t.Errorf("meta execs wrong: %v", m.Execs)
	}
	if code, _ := fetch(t, ts, "/meta?quality=huge"); code != http.StatusBadRequest {
		t.Errorf("bad quality = %d, want 400", code)
	}
}

// TestSweepHWPFAxis submits a grid across the hardware axis and checks
// the cell count multiplies and the records carry the model column.
func TestSweepHWPFAxis(t *testing.T) {
	ts := httptest.NewServer(newServer(2, nil))
	defer ts.Close()

	id, cells := submit(t, ts,
		`{"workloads":"IS","systems":"A53","variants":"plain","hwpf":"none,imp","quality":"tiny"}`)
	if cells != 2 {
		t.Fatalf("submitted %d cells, want 2 (one per hardware model)", cells)
	}
	if st := poll(t, ts, id); st.State != stateDone {
		t.Fatalf("job failed: %+v", st)
	}
	code, body := fetch(t, ts, "/results?id="+id+"&format=csv")
	if code != http.StatusOK {
		t.Fatalf("GET /results = %d", code)
	}
	for _, want := range []string{"IS,A53,plain,none,", "IS,A53,plain,imp,"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("results missing %q:\n%s", want, body)
		}
	}

	// Validation: an unknown model is a 400 at submission time.
	resp, err := http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"hwpf":"warp-drive","quality":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad hwpf spec = %d, want 400", resp.StatusCode)
	}
}

// TestSweepCoreAxis submits a grid across the core-model axis and
// checks the cell count multiplies and the records carry the column.
func TestSweepCoreAxis(t *testing.T) {
	ts := httptest.NewServer(newServer(2, nil))
	defer ts.Close()

	id, cells := submit(t, ts,
		`{"workloads":"IS","systems":"A53","variants":"plain","core":"ooo,inorder","quality":"tiny"}`)
	if cells != 2 {
		t.Fatalf("submitted %d cells, want 2 (one per core model)", cells)
	}
	if st := poll(t, ts, id); st.State != stateDone {
		t.Fatalf("job failed: %+v", st)
	}
	code, body := fetch(t, ts, "/results?id="+id+"&format=csv")
	if code != http.StatusOK {
		t.Fatalf("GET /results = %d", code)
	}
	for _, want := range []string{",ooo,", ",inorder,"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("results missing %q:\n%s", want, body)
		}
	}

	// Validation: an unknown model is a 400 at submission time.
	resp, err := http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"core":"abacus","quality":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad core spec = %d, want 400", resp.StatusCode)
	}
}

// TestBadFlagRejected keeps the flag surface honest.
func TestBadFlagRejected(t *testing.T) {
	if err := run([]string{"-nope"}, &bytes.Buffer{}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestSweepExecAxis: a replay job produces the same statistics as a
// direct job (only the exec column differs), replay traces persist in
// the shared store, and an unknown mode is a 400 at submission time.
func TestSweepExecAxis(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(2, st))
	defer ts.Close()

	const base = `{"workloads":"IS","systems":"A53,Haswell","variants":"plain,auto","c":16,"quality":"tiny"`
	directID, directCells := submit(t, ts, base+`}`)
	if st := poll(t, ts, directID); st.State != stateDone {
		t.Fatalf("direct job failed: %+v", st)
	}
	_, directCSV := fetch(t, ts, "/results?id="+directID+"&format=csv")

	replayID, replayCells := submit(t, ts, base+`,"exec":"replay"}`)
	if directCells != replayCells {
		t.Fatalf("cell counts differ: %d direct vs %d replay", directCells, replayCells)
	}
	if st := poll(t, ts, replayID); st.State != stateDone {
		t.Fatalf("replay job failed: %+v", st)
	}
	_, replayCSV := fetch(t, ts, "/results?id="+replayID+"&format=csv")

	// Replay cells were served from the direct job's result entries
	// (result keys ignore the mode) — the statistics are identical, and
	// the exec column carries the requested mode of each cell.
	warmNorm := strings.ReplaceAll(string(replayCSV), ",replay,", ",direct,")
	if warmNorm != string(directCSV) {
		t.Errorf("replay job served warm differs from direct job:\n%s\nvs\n%s", replayCSV, directCSV)
	}
	if !strings.Contains(string(replayCSV), ",replay,") {
		t.Errorf("warm replay rows not labelled with the requested mode:\n%s", replayCSV)
	}

	// A replay job against a cold result space records traces; re-run
	// with a fresh store to see the replay path itself.
	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(newServer(2, st2))
	defer ts2.Close()
	coldID, _ := submit(t, ts2, base+`,"exec":"replay"}`)
	if st := poll(t, ts2, coldID); st.State != stateDone {
		t.Fatalf("cold replay job failed: %+v", st)
	}
	_, coldCSV := fetch(t, ts2, "/results?id="+coldID+"&format=csv")
	if stats := st2.Stats(); stats.TracePuts == 0 {
		t.Error("cold replay job persisted no traces")
	}
	if !strings.Contains(string(coldCSV), ",replay,") {
		t.Errorf("cold replay rows not labelled replay:\n%s", coldCSV)
	}
	normalized := strings.ReplaceAll(string(coldCSV), ",replay,", ",direct,")
	if normalized != string(directCSV) {
		t.Errorf("replay statistics differ from direct beyond the exec column:\n%s\nvs\n%s", coldCSV, directCSV)
	}

	resp, err := http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"exec":"jit","quality":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad exec spec = %d, want 400", resp.StatusCode)
	}
}

// TestConcurrentSubmissions is the race-focused end-to-end test:
// many goroutines submit the same generated-kernel grid concurrently
// against one shared store. Every job must complete with consistent
// progress counts, every result set must be byte-identical, and the
// store must see each distinct cell written exactly once — concurrent
// submissions never duplicate object writes because the executor
// serializes jobs and later jobs are pure cache traffic.
func TestConcurrentSubmissions(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(2, st))
	defer ts.Close()

	const spec = `{"workloads":"GEN-00,GEN-01","systems":"A53","variants":"plain,auto","c":8,"quality":"gen"}`
	const submitters = 6

	// Submissions run off the test goroutine, so they must not call
	// t.Fatal; failures are collected and asserted after the join.
	ids := make([]string, submitters)
	cells := make([]int, submitters)
	errs := make([]error, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(spec))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("POST /sweep = %d", resp.StatusCode)
				return
			}
			var out struct {
				ID    string `json:"id"`
				Cells int    `json:"cells"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs[i] = err
				return
			}
			ids[i], cells[i] = out.ID, out.Cells
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submitter %d: %v", i, err)
		}
	}

	seen := map[string]bool{}
	var results [][]byte
	for i := 0; i < submitters; i++ {
		if seen[ids[i]] {
			t.Fatalf("duplicate job id %s", ids[i])
		}
		seen[ids[i]] = true
		final := poll(t, ts, ids[i])
		if final.State != stateDone || final.Done != cells[i] || final.Done != final.Total {
			t.Fatalf("job %s finished inconsistently: %+v", ids[i], final)
		}
		code, body := fetch(t, ts, "/results?id="+ids[i])
		if code != http.StatusOK {
			t.Fatalf("GET /results %s = %d", ids[i], code)
		}
		results = append(results, body)
	}
	for i := 1; i < len(results); i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Errorf("job %s results differ from job %s", ids[i], ids[0])
		}
	}

	// Each distinct cell was written to the store exactly once.
	if stats := st.Stats(); stats.Puts != int64(cells[0]) {
		t.Errorf("store saw %d object writes for %d distinct cells", stats.Puts, cells[0])
	}

	// The listing shows every job, all terminal.
	code, body := fetch(t, ts, "/jobs")
	if code != http.StatusOK {
		t.Fatalf("GET /jobs = %d", code)
	}
	var list []JobStatus
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != submitters {
		t.Errorf("job listing has %d entries, want %d", len(list), submitters)
	}
	for _, js := range list {
		if js.State != stateDone {
			t.Errorf("job %s not done after polling: %+v", js.ID, js)
		}
	}
}

// TestGenQuality: the generated pool is a first-class quality — /meta
// lists it with canonical parameter vectors and a sweep over it runs.
func TestGenQuality(t *testing.T) {
	ts := httptest.NewServer(newServer(1, nil))
	defer ts.Close()

	code, body := fetch(t, ts, "/meta?quality=gen")
	if code != http.StatusOK {
		t.Fatalf("GET /meta?quality=gen = %d: %s", code, body)
	}
	var m Meta
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads["gen"]) == 0 {
		t.Fatal("gen pool empty in /meta")
	}
	for _, w := range m.Workloads["gen"] {
		if !strings.HasPrefix(w.Name, "GEN-") || !strings.Contains(w.Params, "shape=") {
			t.Errorf("gen workload %q has non-canonical params %q", w.Name, w.Params)
		}
	}

	id, cells := submit(t, ts, `{"workloads":"GEN-02","systems":"A53","variants":"plain,auto","c":8,"quality":"gen"}`)
	if cells != 2 {
		t.Fatalf("gen sweep submitted %d cells, want 2", cells)
	}
	if final := poll(t, ts, id); final.State != stateDone {
		t.Fatalf("gen sweep failed: %+v", final)
	}
}

// TestJobEviction: past maxJobs the oldest terminal jobs — tune and
// sweep alike — are evicted first, after which every endpoint answers
// 404 for their ids; a running job is never evicted.
func TestJobEviction(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(2, st))
	defer ts.Close()

	// hit is stored by job-2, so every later submission of it is all
	// store hits: terminal before POST /sweep replies.
	const hit = `{"workloads":"IS","systems":"A53","variants":"plain","quality":"tiny"}`
	tuneID := submitTune(t, ts, tinyTuneSpec)
	if final := poll(t, ts, tuneID); final.State != stateDone {
		t.Fatalf("tune job %s: %+v", tuneID, final)
	}
	sweepID, _ := submit(t, ts, hit)
	if final := poll(t, ts, sweepID); final.State != stateDone {
		t.Fatalf("sweep job %s: %+v", sweepID, final)
	}
	// gone reports whether id was evicted; an evicted job must answer
	// 404 on every endpoint.
	gone := func(ts *httptest.Server, id string) bool {
		t.Helper()
		if code, _ := fetch(t, ts, "/jobs/"+id); code != http.StatusNotFound {
			return false
		}
		for _, path := range []string{"/jobs/" + id + "/events", "/results?id=" + id} {
			if code, _ := fetch(t, ts, path); code != http.StatusNotFound {
				t.Fatalf("evicted job %s: GET %s = %d, want 404", id, path, code)
			}
		}
		return true
	}
	for range maxJobs - 2 {
		submit(t, ts, hit)
	}
	if gone(ts, tuneID) || gone(ts, sweepID) {
		t.Fatalf("evicted at %d jobs, the bound is %d", maxJobs, maxJobs)
	}
	submit(t, ts, hit)
	if !gone(ts, tuneID) || gone(ts, sweepID) {
		t.Fatal("one job over the bound: want the tune job (oldest) evicted, the sweep kept")
	}
	submit(t, ts, hit)
	if !gone(ts, sweepID) || gone(ts, "job-3") {
		t.Fatal("two jobs over the bound: want the sweep job evicted next, job-3 kept")
	}
	var list []JobStatus
	if code, body := fetch(t, ts, "/jobs"); code != http.StatusOK || json.Unmarshal(body, &list) != nil || len(list) != maxJobs {
		t.Fatalf("GET /jobs lists %d jobs, want %d", len(list), maxJobs)
	}

	// Coordinator-only over the same store: the first job's cell is not
	// stored, so it runs forever, and outlives every terminal job.
	co := coordinatorOnly(t, config{store: st})
	running, _ := submit(t, co, `{"workloads":"CG","systems":"A53","variants":"plain","quality":"tiny"}`)
	for range maxJobs + 1 {
		submit(t, co, hit)
	}
	if gone(co, running) {
		t.Fatal("running job evicted")
	}
	if !gone(co, "job-2") || !gone(co, "job-3") || gone(co, "job-4") {
		t.Fatal("want the two oldest terminal jobs evicted in place of the running one")
	}
}
