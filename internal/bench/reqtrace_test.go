package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/wl"
)

// TestReqtraceAblationFree is the standing proof that tracing costs the
// simulation nothing: every pre-existing overload metric is identical
// with the tracer on and off, and no retained trace violates the
// stage-sum-equals-latency invariant.
func TestReqtraceAblationFree(t *testing.T) {
	rep, err := ablationReqtrace()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["metrics_identical"] != 1 {
		t.Fatalf("tracing perturbed the run:\n%s", strings.Join(rep.Lines, "\n"))
	}
	if rep.Metrics["trace_sum_mismatches"] != 0 {
		t.Fatalf("trace invariant violated:\n%s", strings.Join(rep.Lines, "\n"))
	}
	if rep.Metrics["traced_requests"] <= 0 || rep.Metrics["stages_recorded"] <= 0 {
		t.Fatalf("traced arm recorded nothing: %+v", rep.Metrics)
	}
}

// TestRequestsJSONBitReproducible runs the traced overload cell twice
// and requires byte-identical requests documents — the double-run
// digest check the soak job re-runs under -race.
func TestRequestsJSONBitReproducible(t *testing.T) {
	run := func() OverloadResult {
		res, err := RunOverload(OverloadSpec{Arrival: wl.ArrivalPoisson, Load: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.RequestsJSON) == 0 {
		t.Fatal("traced run produced no requests document")
	}
	if !bytes.Equal(a.RequestsJSON, b.RequestsJSON) {
		t.Fatal("two identical runs produced different requests documents")
	}
	var doc struct {
		Sealed int64 `json:"sealed"`
		Recent []struct {
			Latency   float64            `json:"latency_seconds"`
			Breakdown map[string]float64 `json:"breakdown_seconds"`
		} `json:"recent"`
	}
	if err := json.Unmarshal(a.RequestsJSON, &doc); err != nil {
		t.Fatalf("requests document not JSON: %v", err)
	}
	if doc.Sealed != a.TracedRequests || len(doc.Recent) == 0 {
		t.Fatalf("document counts wrong: sealed %d, traced %d, recent %d",
			doc.Sealed, a.TracedRequests, len(doc.Recent))
	}
	// Under real overload the fetch-bound rig must show fetch waits
	// somewhere in the retained traces.
	if !strings.Contains(string(a.RequestsJSON), `"fetch-wait"`) {
		t.Fatal("no fetch-wait stage in any retained trace")
	}
}

// TestProfileReportNonzero pins `hlbench -profile`: the measured
// workload dispatches events at a nonzero wall-clock rate.
func TestProfileReportNonzero(t *testing.T) {
	rep, err := ProfileReport(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	out := strings.Join(rep.Lines, "\n")
	if !strings.Contains(out, "events/sec") {
		t.Fatalf("profile report missing rate:\n%s", out)
	}
	if rep.Metrics["events_per_sec"] <= 0 || rep.Metrics["events"] <= 0 {
		t.Fatalf("profiler measured nothing: %+v\n%s", rep.Metrics, out)
	}
}
