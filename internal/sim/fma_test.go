package sim

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// fusedOp matches the fused multiply-add family in Go assembly listings
// for arm64 (FMADDD, FNMSUBS, ...), ppc64le and s390x (FMADD, FMSUBS,
// ...).
var fusedOp = regexp.MustCompile(`\s(FN?M(ADD|SUB))[DS]?\s`)

// TestNoFusedMultiplyAdd keeps a cell's bits independent of the
// worker's CPU architecture. Go may fuse x*y+z into one instruction
// with a single rounding on arm64, ppc64le and s390x, but never on
// amd64, so a fused site can give a cell different bits on different
// workers. The test cross-compiles every internal package for those
// three architectures with the toolchain running it and fails on any
// fused instruction; wrap the product in an explicit float64(...) to
// force its rounding.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles internal/... three times; skipped in -short mode")
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	for _, arch := range []string{"arm64", "ppc64le", "s390x"} {
		cmd := exec.Command(goBin, "build", "-gcflags=-S", "repro/internal/...")
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s build: %v\n%s", arch, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if fusedOp.MatchString(line) {
				t.Errorf("GOARCH=%s fuses a multiply-add: %s", arch, strings.TrimSpace(line))
			}
		}
	}
}
