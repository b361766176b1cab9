// Package bench regenerates every figure of the evaluation section
// (§6) of Ainsworth & Jones (CGO 2017) on the simulated machines. Each
// FigN function returns a Table whose rows correspond to the bars or
// series of the paper's figure; cmd/swpfbench prints them and
// bench_test.go exposes each as a testing.B benchmark.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// Quality selects input sizes: Full is the scaled-paper configuration
// behind docs/experiments.md; Quick shrinks inputs for smoke tests.
type Quality int

// Qualities.
const (
	Full Quality = iota
	Quick
)

// PoolName maps the quality to the shared workload-pool name
// (workloads.PoolByQuality) grid and tune specs carry.
func (q Quality) PoolName() string {
	if q == Quick {
		return "quick"
	}
	return "full"
}

// workloadSet returns the benchmark suite at the chosen quality. The
// sizes live in internal/workloads (Quick/All) so the daemon's pools,
// the tuner and the figures all draw from one registry.
func workloadSet(q Quality) []*workloads.Workload {
	if q == Quick {
		return workloads.Quick()
	}
	return workloads.All()
}

// WorkloadSet exposes the benchmark suite at the chosen quality — the
// workload pool cmd/swpfbench's -sweep mode selects from.
func WorkloadSet(q Quality) []*workloads.Workload { return workloadSet(q) }

// workloadByName builds one suite workload at the chosen quality.
func workloadByName(q Quality, name string) *workloads.Workload {
	for _, w := range workloadSet(q) {
		if w.Name == name || strings.HasPrefix(w.Name, name) {
			return w
		}
	}
	return nil
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Note    string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Note != "" {
		fmt.Fprintf(&sb, "note: %s\n", t.Note)
	}
	return sb.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// geomean of a slice, ignoring non-positive entries.
func geomean(xs []float64) float64 { return sweep.Geomean(xs) }

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// systems returns the four Table 1 machines.
func systems() []*sim.Config { return uarch.All() }

// CSV renders the table as comma-separated values (header first), for
// feeding plots; swpfbench emits this under -csv.
func (t *Table) CSV() string {
	var sb strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	write := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(esc(c))
		}
		sb.WriteByte('\n')
	}
	write(t.Columns)
	for _, r := range t.Rows {
		write(r)
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table, for
// pasting into docs/experiments.md.
func (t *Table) Markdown() string {
	var sb strings.Builder
	row := func(cells []string) {
		sb.WriteString("| ")
		sb.WriteString(strings.Join(cells, " | "))
		sb.WriteString(" |\n")
	}
	row(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	row(sep)
	for _, r := range t.Rows {
		row(r)
	}
	return sb.String()
}
