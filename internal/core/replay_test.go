package core

import (
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// TestRecordReplayMatchesRun is the end-to-end bit-identity contract:
// for real workloads (including G500, whose driver interleaves
// host-side memory writes between kernel invocations, and pass-
// transformed variants with prefetches), a trace recorded once replays
// on every machine with a Result identical to a direct Run there —
// Pass excepted, which replay does not reconstruct — and Record's
// Result equals Run's, Pass included.
func TestRecordReplayMatchesRun(t *testing.T) {
	ws := []*workloads.Workload{
		workloads.IS(1<<10, 1<<12),
		workloads.G500(8, 8),
		workloads.HJ(1<<9, 2),
	}
	cfgs := append(uarch.All(), uarch.WithHWPrefetcher(uarch.Haswell(), "imp"))
	o := Options{}
	for _, w := range ws {
		for _, v := range []Variant{VariantPlain, VariantAuto} {
			im := recordImage(t, w, v, o)
			cx := NewContext()
			for _, cfg := range cfgs {
				want, err := cx.Run(w, cfg, v, o)
				if err != nil {
					t.Fatalf("run %s/%s on %s: %v", w.Name, v, cfg.Name, err)
				}
				_, rec, err := cx.Record(w, cfg, v, o)
				if err != nil {
					t.Fatalf("record %s/%s on %s: %v", w.Name, v, cfg.Name, err)
				}
				if !reflect.DeepEqual(rec.Pass, want.Pass) {
					t.Errorf("%s/%s on %s: Record's pass report differs from Run's", w.Name, v, cfg.Name)
				}
				rec.Pass, want.Pass = nil, nil
				if *rec != *want {
					t.Errorf("%s/%s on %s:\nrecord %+v\ndirect %+v", w.Name, v, cfg.Name, rec, want)
				}
				got, err := cx.ReplayImage(im, cfg)
				if err != nil {
					t.Fatalf("replay %s/%s on %s: %v", w.Name, v, cfg.Name, err)
				}
				if *got != *want {
					t.Errorf("%s/%s on %s:\nreplay %+v\ndirect %+v", w.Name, v, cfg.Name, got, want)
				}
			}
		}
	}
}

// recordImage records the cell and predecodes its trace.
func recordImage(t *testing.T, w *workloads.Workload, v Variant, o Options) *interp.Image {
	t.Helper()
	tr, _, err := RecordTrace(w, v, o)
	if err != nil {
		t.Fatalf("record %s/%s: %v", w.Name, v, err)
	}
	im, err := interp.NewImage(tr)
	if err != nil {
		t.Fatalf("image %s/%s: %v", w.Name, v, err)
	}
	return im
}

// TestRecordMachineIndependentAcrossUarch: Record on different Table 1
// machines returns byte-identical traces.
func TestRecordMachineIndependentAcrossUarch(t *testing.T) {
	w := workloads.IS(1<<10, 1<<12)
	cx := NewContext()
	var traces []*trace.Trace
	for _, cfg := range uarch.All() {
		tr, _, err := cx.Record(w, cfg, VariantAuto, Options{})
		if err != nil {
			t.Fatalf("record on %s: %v", cfg.Name, err)
		}
		traces = append(traces, tr)
	}
	for i := 1; i < len(traces); i++ {
		if !trace.Equal(traces[0], traces[i]) {
			t.Errorf("trace recorded on %s differs from %s",
				uarch.All()[i].Name, uarch.All()[0].Name)
		}
	}
}

// TestReplayTraceRoundTripsSerialization: the store path (encode →
// decode → replay) produces the same Result as replaying the freshly
// recorded trace.
func TestReplayTraceRoundTripsSerialization(t *testing.T) {
	w := workloads.IS(1<<9, 1<<10)
	cfg := uarch.A53()
	tr, _, err := RecordTrace(w, VariantAuto, Options{})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	decoded, err := trace.Decode(tr.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	cx := NewContext()
	var results []Result
	for _, x := range []*trace.Trace{tr, decoded} {
		im, err := interp.NewImage(x)
		if err != nil {
			t.Fatalf("image: %v", err)
		}
		r, err := cx.ReplayImage(im, cfg)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		results = append(results, *r)
	}
	if results[0] != results[1] {
		t.Errorf("serialized replay differs:\n%+v\n%+v", results[0], results[1])
	}
}

// TestParseExecMode covers the -exec axis parser.
func TestParseExecMode(t *testing.T) {
	for s, want := range map[string]ExecMode{
		"": ExecDirect, "direct": ExecDirect, "replay": ExecReplay, " replay ": ExecReplay,
	} {
		got, err := ParseExecMode(s)
		if err != nil || got != want {
			t.Errorf("ParseExecMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseExecMode("jit"); err == nil {
		t.Error("ParseExecMode accepted jit")
	}
}
