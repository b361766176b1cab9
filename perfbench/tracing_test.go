package main

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/interp.(*Machine).call":                                "repro/internal/interp",
		"repro/internal/sweep.Axis[go.shape.*repro/internal/sim.Config].Parse": "repro/internal/sweep",
		"runtime.mallocgc":                    "runtime",
		"encoding/json.(*decodeState).object": "encoding/json",
		"net/http.(*conn).serve":              "net/http",
		"main.main":                           "main",
		"internal/runtime/syscall.Syscall6":   "internal/runtime/syscall",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestProfileAttribution profiles direct simulation in process and
// checks that the parser reads the profile and that the simulator's
// layers claim its samples.
func TestProfileAttribution(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race most samples land in the race runtime")
	}
	stop, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.Tiny()[0]
	cx := core.NewContext()
	for start := time.Now(); time.Since(start) < time.Second; {
		if _, err := cx.Run(w, uarch.A53(), core.VariantAuto, core.Options{}); err != nil {
			stop()
			t.Fatal(err)
		}
	}
	prof, err := stop()
	if err != nil {
		t.Fatal(err)
	}
	self, total, samples, err := moduleSelfTimes(map[string][]byte{"": prof})
	if err != nil {
		t.Fatal(err)
	}
	if samples < 20 {
		t.Skipf("only %d samples", samples)
	}
	if cover := (total - self["other"]) / total; cover < 0.95 {
		t.Errorf("layers cover %.2f of the samples: %v", cover, self)
	}
	if sim := self["interp"] + self["sim"] + self["hwpf"]; sim < total/2 {
		t.Errorf("interp+sim+hwpf hold %.2fs of %.2fs: %v", sim, total, self)
	}
}
