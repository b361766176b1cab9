package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/interp"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// ExecMode selects how a cell's statistics are produced: by
// interpreting the kernel directly, or by replaying a recorded trace
// through the timing model. The two are byte-for-byte identical (the
// golden harness diffs them); replay amortizes interpretation across
// the machine × hwpf axes of a grid.
type ExecMode string

// Execution modes.
const (
	ExecDirect ExecMode = "direct"
	ExecReplay ExecMode = "replay"
)

// ExecModes lists the accepted execution modes in presentation order.
func ExecModes() []ExecMode { return []ExecMode{ExecDirect, ExecReplay} }

// ParseExecMode parses an -exec flag value ("" selects direct).
func ParseExecMode(s string) (ExecMode, error) {
	switch strings.TrimSpace(s) {
	case "", string(ExecDirect):
		return ExecDirect, nil
	case string(ExecReplay):
		return ExecReplay, nil
	}
	return "", fmt.Errorf("core: unknown exec mode %q (have direct, replay)", s)
}

// optionsMeta canonically encodes the option set for the trace header.
// Informational: store keys hash the Options struct itself.
func optionsMeta(o Options) string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(fmt.Sprintf("core: marshal options: %v", err)) // plain data; unreachable
	}
	return string(b)
}

// RecordTrace interprets the requested variant of the workload on a
// recorder (interp.NewRecorder): functionally, with no machine and no
// timing. It returns the sealed trace and the prefetch pass report
// (nil for variants without a pass). The trace is machine-independent,
// which is why one trace serves every machine × hwpf cell of a
// (workload, variant) group: build its interp.Image once and retime it
// per configuration with Context.ReplayImage.
func RecordTrace(w *workloads.Workload, v Variant, o Options) (*trace.Trace, *prefetch.Result, error) {
	inst, passRes, err := instance(w, v, o)
	if err != nil {
		return nil, nil, err
	}

	tw := trace.NewWriter()
	mach := interp.NewRecorder(inst.Mod, tw)
	mach.MaxInstrs = o.MaxInstrs
	sum, err := inst.Exec(mach)
	if err != nil {
		return nil, nil, fmt.Errorf("core: record %s/%s: %w", w.Name, v, err)
	}
	if sum != inst.Want {
		return nil, nil, fmt.Errorf("core: record %s/%s: checksum %d, want %d", w.Name, v, sum, inst.Want)
	}

	st := mach.Stats()
	oc := make([]uint64, len(st.OpCounts))
	copy(oc, st.OpCounts[:])
	t := tw.Close(
		trace.Meta{Workload: w.Name, Params: w.Params, Variant: string(v), Options: optionsMeta(o)},
		trace.Summary{
			Executed: st.Executed, OpCounts: oc,
			Loads: st.Loads, Stores: st.Stores, Prefetches: st.Prefetches,
			Checksum: sum,
		},
	)
	return t, passRes, nil
}

// Record records the requested variant of the workload (RecordTrace)
// and replays the trace on cfg, returning the trace together with
// cfg's Result. The Result equals what Run would have produced, Pass
// included.
func (cx *Context) Record(w *workloads.Workload, cfg *sim.Config, v Variant, o Options) (*trace.Trace, *Result, error) {
	t, passRes, err := RecordTrace(w, v, o)
	if err != nil {
		return nil, nil, err
	}
	im, err := interp.NewImage(t)
	if err != nil {
		return nil, nil, fmt.Errorf("core: record %s/%s: %w", w.Name, v, err)
	}
	res, err := cx.ReplayImage(im, cfg)
	if err != nil {
		return nil, nil, err
	}
	res.Pass = passRes
	return t, res, nil
}

// ReplayImage retimes a predecoded trace on cfg, reusing the context's
// simulator for that configuration. The Result is byte-for-byte
// identical to Run of the same (workload, variant, options) on cfg —
// Pass excepted, which replay cannot reconstruct (it carries nil, like
// every store-served result). The Image may be shared across contexts
// and goroutines: replay only reads it.
func (cx *Context) ReplayImage(im *interp.Image, cfg *sim.Config) (*Result, error) {
	t := im.Trace()
	st, err := im.Replay(cx.core(cfg))
	if err != nil {
		return nil, fmt.Errorf("core: replay %s/%s on %s: %w", t.Meta.Workload, t.Meta.Variant, cfg.Name, err)
	}
	return assemble(t.Meta.Workload, cfg.Name, Variant(t.Meta.Variant), t.Summary.Checksum,
		st, cx.core(cfg).Hierarchy(), nil), nil
}
