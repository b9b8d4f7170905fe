package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/obs/attr"
)

// TestSnapshotHasQuantiles checks the hlbench/2 schema addition: the
// fetch-wait histogram's p50/p99/mean appear in the snapshot.
func TestSnapshotHasQuantiles(t *testing.T) {
	snap, err := BuildSnapshot(QuickScale(), "quick")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != "hlbench/2" {
		t.Fatalf("schema = %q", snap.Schema)
	}
	q, ok := snap.Quantiles["tertiary.fetch_wait"]
	if !ok {
		t.Fatalf("no fetch-wait quantiles: %+v", snap.Quantiles)
	}
	for _, k := range []string{"p50_s", "p99_s", "mean_s"} {
		if q[k] <= 0 {
			t.Fatalf("quantile %s = %v, want > 0 (fetches waited)", k, q[k])
		}
	}
	if q["p50_s"] > q["p99_s"] {
		t.Fatalf("p50 %v > p99 %v", q["p50_s"], q["p99_s"])
	}
}

// TestServeMigrationPublishesAndIsDeterministic runs the -serve workload
// twice. Both runs publish, and their final pages are byte-identical but
// for the kernel's wall-clock profile at the end of /metrics: publishing
// only reads. Each page then has its shape, and content from every
// decision actor.
func TestServeMigrationPublishesAndIsDeterministic(t *testing.T) {
	run := func() *Pages {
		var last *Pages
		if err := ServeMigration(QuickScale(), func(pg *Pages) { last = pg }, 2); err != nil {
			t.Fatal(err)
		}
		if last == nil {
			t.Fatal("serve workload never published")
		}
		return last
	}
	// virtual cuts /metrics before the kernel profile, whose events/sec and
	// dispatch figures are wall clock.
	virtual := func(m []byte) []byte {
		i := bytes.Index(m, []byte("# HELP hl_sim_events_total"))
		if i < 0 {
			t.Fatalf("/metrics has no kernel profile:\n%s", m)
		}
		return m[:i]
	}
	a, b := run(), run()

	var dd decisionsDoc
	if err := json.Unmarshal(a.Decisions, &dd); err != nil {
		t.Fatalf("/decisions not JSON: %v", err)
	}
	t.Run("deterministic", func(t *testing.T) {
		if !bytes.Equal(virtual(a.Metrics), virtual(b.Metrics)) || !bytes.Equal(a.Heatmap, b.Heatmap) ||
			!bytes.Equal(a.Decisions, b.Decisions) || !bytes.Equal(a.Requests, b.Requests) {
			t.Fatal("two serve runs published different pages")
		}
	})
	t.Run("profile", func(t *testing.T) {
		// The kernel self-profile is rendered into /metrics after every
		// virtual-time series, and with profiling on it has its wall-clock
		// figures.
		m := string(a.Metrics)
		tail := m[len(virtual(a.Metrics)):]
		for _, want := range []string{"hl_sim_events_total ", "hl_sim_heap_high_water ", "hl_sim_events_per_sec ", "hl_sim_dispatch_avg_ns "} {
			if !strings.Contains(tail, want) {
				t.Fatalf("/metrics profile missing %q:\n%s", want, tail)
			}
		}
		if strings.Contains(tail, "hl_virtual_time_seconds") || !strings.Contains(m, "hl_virtual_time_seconds ") {
			t.Fatalf("/metrics profile does not follow the virtual-time series:\n%s", m)
		}
	})
	t.Run("metrics", func(t *testing.T) {
		m := string(a.Metrics)
		for _, want := range []string{
			"# TYPE hl_virtual_time_seconds gauge\nhl_virtual_time_seconds ",
			"# TYPE hl_cache_hits_total counter\nhl_cache_hits_total ",
			"hl_tertiary_fetches_total",
			"# TYPE hl_svc_queue_interactive gauge",
			"# TYPE hl_svc_queue_interactive_max gauge",
			"# TYPE hl_tertiary_fetch_wait_seconds histogram",
			"hl_tertiary_fetch_wait_seconds_p50 ",
			"hl_tertiary_fetch_wait_seconds_p99 ",
			`hl_span_seconds_total{track="`,
			`hl_span_count_total{track="`,
			`hl_segment_heat{seg="`,
			fmt.Sprintf("hl_decisions_recorded_total %d\n", dd.Total),
		} {
			if !strings.Contains(m, want) {
				t.Fatalf("/metrics missing %q:\n%s", want, m)
			}
		}
		// A histogram's +Inf bucket holds every observation.
		var inf, count int64
		for _, line := range strings.Split(m, "\n") {
			fmt.Sscanf(line, `hl_tertiary_fetch_wait_seconds_bucket{le="+Inf"} %d`, &inf)
			fmt.Sscanf(line, "hl_tertiary_fetch_wait_seconds_count %d", &count)
		}
		if count == 0 || inf != count {
			t.Fatalf("fetch-wait histogram: +Inf bucket %d, count %d", inf, count)
		}
	})
	t.Run("heatmap", func(t *testing.T) {
		var hm attr.Snapshot
		if err := json.Unmarshal(a.Heatmap, &hm); err != nil {
			t.Fatalf("/heatmap not JSON: %v", err)
		}
		if len(hm.Segments) == 0 || len(hm.Files) == 0 {
			t.Fatalf("/heatmap has %d segments, %d files", len(hm.Segments), len(hm.Files))
		}
	})
	t.Run("decisions", func(t *testing.T) {
		if len(dd.Recent) == 0 || int64(len(dd.Recent)) > dd.Total || len(dd.Recent) > decisionsExported {
			t.Fatalf("/decisions: %d recent of %d", len(dd.Recent), dd.Total)
		}
		d := string(a.Decisions)
		for _, want := range []string{`"actor": "migrator"`, `"actor": "stage"`, `"actor": "tcleaner"`, `"verdict": "cleaned"`} {
			if !strings.Contains(d, want) {
				t.Fatalf("/decisions missing %q:\n%s", want, d)
			}
		}
	})
	t.Run("requests", func(t *testing.T) {
		var doc requestsDoc
		if err := json.Unmarshal(a.Requests, &doc); err != nil {
			t.Fatalf("/requests not JSON: %v", err)
		}
		if doc.Started != 2 || doc.Sealed != 2 || len(doc.Recent) != 2 {
			t.Fatalf("/requests counts: started %d, sealed %d, %d recent; want one per round", doc.Started, doc.Sealed, len(doc.Recent))
		}
		if len(doc.Classes) != 1 || doc.Classes[0].Class != "interactive" {
			t.Fatalf("/requests classes: %+v", doc.Classes)
		}
		slow := doc.Classes[0].Slowest
		if len(slow) != 2 || slow[0].LatencySeconds < slow[1].LatencySeconds {
			t.Fatalf("/requests exemplars not slowest first: %+v", slow)
		}
		// Each breakdown covers its whole request: it sums to the latency.
		for _, tr := range slow {
			var sum float64
			for _, v := range tr.Breakdown {
				sum += v
			}
			if math.Abs(sum-tr.LatencySeconds) > 1e-9 {
				t.Fatalf("request %d: breakdown %v sums to %g, latency %g", tr.ID, tr.Breakdown, sum, tr.LatencySeconds)
			}
		}
		if !strings.Contains(string(a.Requests), `"kind": "queue-wait"`) {
			t.Fatalf("/requests has no queue-wait stage:\n%s", a.Requests)
		}
	})
}
