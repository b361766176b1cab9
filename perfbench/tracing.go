package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of
// one job share a request id; Parent is 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request string `json:"request"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so the untraced path pays one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// start opens a span and returns its id (0 when tracing is off).
func (t *tracer) start(name, request string, parent int) int {
	if t == nil || !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Request: request, StartNs: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// durations returns the closed durations of every span called name, in
// milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs > 0 {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines, one span per line, after a
// header line carrying the run's identity.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profileModules are the layers module self time is reported for, in
// output order. runtime.sched takes stacks that never leave the Go
// runtime (scheduler, netpoller) and "other" every sample no layer
// claims.
var profileModules = []string{
	"interp", "sim", "hwpf", "trace", "prefetch", "ir", "sweep", "workloads",
	"store", "fleet", "swpfd", "json", "runtime.gc", "runtime.sched", "other",
}

// modulesByPackage maps a package path to its layer. Standard-library
// packages not listed are helpers: their samples go to the nearest
// caller that belongs to a layer.
var modulesByPackage = map[string]string{
	"repro/internal/interp":    "interp",
	"repro/internal/sim":       "sim",
	"repro/internal/hwpf":      "hwpf",
	"repro/internal/trace":     "trace",
	"repro/internal/prefetch":  "prefetch",
	"repro/internal/analysis":  "prefetch",
	"repro/internal/opt":       "prefetch",
	"repro/internal/ir":        "ir",
	"repro/internal/sweep":     "sweep",
	"repro/internal/core":      "sweep",
	"repro/internal/uarch":     "sweep",
	"repro/internal/workloads": "workloads",
	"repro/internal/gen":       "workloads",
	"repro/internal/obs":       "swpfd",
	"repro/internal/store":     "store",
	"repro/internal/fleet":     "fleet",
	"repro/cmd/swpfd":          "swpfd",
	"net/http":                 "swpfd",
	"net":                      "swpfd",
	"net/textproto":            "swpfd",
	"net/url":                  "swpfd",
	"mime":                     "swpfd",
	"encoding/json":            "json",
}

// gcFrames mark a stack as garbage-collector work wherever they appear.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.gcDrain",
}

// startCPUProfile profiles this process until the returned function is
// called, which returns the gzipped profile.
func startCPUProfile() (func() ([]byte, error), error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return func() ([]byte, error) {
		pprof.StopCPUProfile()
		return buf.Bytes(), nil
	}, nil
}

// moduleSelfTimes attributes the CPU samples of gzipped pprof profiles
// to layers and returns seconds per layer, the profiles' total and the
// sample count. Each profile is keyed by the layer of its binary's own
// main package ("" for other), since every binary calls it "main".
func moduleSelfTimes(profiles map[string][]byte) (self map[string]float64, total float64, samples int, err error) {
	self = make(map[string]float64, len(profileModules))
	for mainLayer, data := range profiles {
		p, err := parseProfile(data)
		if err != nil {
			return nil, 0, 0, err
		}
		for _, s := range p.samples {
			secs := float64(s.nanos) / 1e9
			total += secs
			samples++
			self[attribute(p, s.locs, mainLayer)] += secs
		}
	}
	return self, total, samples, nil
}

// attribute names the layer of one sample: garbage-collector work
// anywhere on the stack is runtime.gc; otherwise the first frame from
// the leaf whose package belongs to a layer decides, skipping
// standard-library helpers; an unclaimed repo or main frame ends the
// walk as other, and a stack made only of runtime frames is
// runtime.sched.
func attribute(p *profile, locs []uint64, mainLayer string) string {
	var frames []string
	for _, id := range locs {
		frames = append(frames, p.locations[id]...)
	}
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime.gc"
			}
		}
	}
	runtimeOnly := true
	for _, f := range frames {
		pkg := packageOf(f)
		if m, ok := modulesByPackage[pkg]; ok {
			return m
		}
		if pkg == "main" {
			if mainLayer == "" {
				return "other"
			}
			return mainLayer
		}
		if strings.HasPrefix(pkg, "repro/") || strings.Contains(strings.SplitN(pkg, "/", 2)[0], ".") {
			return "other"
		}
		if pkg != "runtime" && !strings.HasPrefix(pkg, "internal/") && !strings.HasPrefix(pkg, "runtime/") {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "runtime.sched"
	}
	return "other"
}

// packageOf extracts the import path from a symbol name such as
// "repro/internal/interp.(*Machine).call".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profile is the part of a pprof profile attribution needs: samples
// (leaf-first location ids and CPU nanoseconds) and, per location, its
// function names innermost first.
type profile struct {
	samples   []sample
	locations map[uint64][]string
}

type sample struct {
	locs  []uint64
	nanos int64
}

// parseProfile decodes a gzipped pprof protocol buffer (only the
// fields attribution needs).
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{} // function id -> name string index
		locFns  = map[uint64][]uint64{}
		samples []sample
		types   [][2]uint64 // sample_type (type, unit) string indices
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]uint64
			if err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = v
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, t)
		case 2: // sample
			var s sample
			var vals []int64
			if err := pbFields(b, func(f, w int, v uint64, pb []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, pb)
				case 2:
					for _, u := range appendVarints(nil, w, v, pb) {
						vals = append(vals, int64(u))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.nanos = vals[len(vals)-1]
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := pbFields(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(lb, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // function
			var id, name uint64
			if err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	if n := len(types); n == 0 || str(types[n-1][0]) != "cpu" || str(types[n-1][1]) != "nanoseconds" {
		return nil, errors.New("profile: last sample value is not cpu nanoseconds")
	}
	p := &profile{samples: samples, locations: make(map[uint64][]string, len(locFns))}
	for id, fns := range locFns {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcs[f])
		}
		p.locations[id] = names
	}
	return p, nil
}

// appendVarints appends a repeated uint64 field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// pbFields walks one protocol-buffer message, calling f for each
// varint (wire 0) or length-delimited (wire 2) field.
func pbFields(b []byte, f func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := f(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(field, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// minCoverageSamples is the smallest profile whose coverage is checked:
// below it one stray sample moves the share by several points.
const minCoverageSamples = 50

// reportModules adds the module self times to the result and checks
// that the layers claim at least 95% of the sampled CPU time.
func reportModules(res *result, profiles map[string][]byte) {
	self, total, samples, err := moduleSelfTimes(profiles)
	if err != nil {
		res.problem("%v", err)
		return
	}
	for _, m := range profileModules {
		res.layer(m+".self_s", self[m])
	}
	cover := 0.0
	if total > 0 {
		cover = (total - self["other"]) / total
	}
	res.layer("profile.coverage", cover)
	res.note("profile: %d samples, %.3f s, %.1f%% attributed to layers", samples, total, 100*cover)
	switch {
	case samples < minCoverageSamples:
		res.note("profile: fewer than %d samples, coverage not checked", minCoverageSamples)
	case cover < 0.95:
		res.problem("profiled layers cover %.1f%% of CPU samples, want >= 95%%", 100*cover)
	}
}
