package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestTraceMigrationDeterministic runs the traced migration workload
// twice and requires byte-identical Chrome trace output: the trace is
// keyed entirely to virtual time, so any difference is nondeterminism
// in the simulation itself.
func TestTraceMigrationDeterministic(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		if err := TraceMigration(QuickScale(), &outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatal("two identical runs produced different trace bytes")
	}
	out := outs[0].String()
	// Valid JSON with the traceEvents wrapper (what chrome://tracing loads).
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(outs[0].Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 100 {
		t.Fatalf("suspiciously small trace: %d events", len(doc.TraceEvents))
	}
	// The workload must have exercised the whole stack: migration,
	// Footprint transfers, disk I/O, cache activity, and a demand fetch.
	for _, cat := range []string{
		"core.migrate", "fp.write", "fp.read", "disk.read", "disk.write",
		"svc.queue", "cache.evict", "fetch.wait", "jb.write",
	} {
		if !strings.Contains(out, `"cat":"`+cat+`"`) {
			t.Fatalf("trace has no %s spans", cat)
		}
	}
}

// TestSnapshotShape checks the -json snapshot carries every table plus
// the obs counters, with the migration actually moving bytes.
func TestSnapshotShape(t *testing.T) {
	snap, err := BuildSnapshot(QuickScale(), "quick")
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"table2", "table3", "table4", "table5", "table6"} {
		if len(snap.Tables[tbl]) == 0 {
			t.Fatalf("snapshot missing %s metrics", tbl)
		}
	}
	if snap.Counters["tertiary.bytes_out"] <= 0 {
		t.Fatal("snapshot migration moved no bytes")
	}
	if snap.SpanSeconds["fp.write"] <= 0 {
		t.Fatal("snapshot has no Footprint write time")
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(snap); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema":"hlbench/2"`) {
		t.Fatal("snapshot JSON missing schema tag")
	}
}

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
