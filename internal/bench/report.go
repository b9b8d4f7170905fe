// Package bench regenerates every table and figure of the paper's
// evaluation (§7): the large-object benchmark (Table 2), access delays
// (Table 3), the migration time breakdown (Table 4), raw device rates
// (Table 5), and migrator throughput under disk-arm contention (Table 6).
// The same harness backs cmd/hlbench and the repository's testing.B
// benchmarks; EXPERIMENTS.md records paper-vs-measured values.
package bench

import (
	"fmt"
	"strings"
)

// Report is one regenerated table: formatted lines plus named metrics for
// programmatic checks (tests assert the paper's qualitative shape on
// these).
type Report struct {
	Title   string
	Lines   []string
	Metrics map[string]float64
}

func newReport(title string) *Report {
	return &Report{Title: title, Metrics: make(map[string]float64)}
}

func (r *Report) addf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) metric(name string, v float64) {
	r.Metrics[name] = v
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	b.WriteString(r.Title)
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", len(r.Title)))
	b.WriteString("\n")
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	return b.String()
}
