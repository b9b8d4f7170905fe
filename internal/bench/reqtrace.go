package bench

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/wl"
)

// Per-request tracing costs nothing that the simulation can see: it
// consumes no virtual time and draws no randomness, so a traced run and
// an untraced run of the same workload produce identical metrics. The
// ablation below is the standing proof — it executes the overload cell
// both ways and reports whether every measured quantity matched, plus
// the trace-invariant check (per-stage critical-path durations summing
// exactly to each request's end-to-end latency) over every retained
// trace.

// tracedLoad is the offered-load multiple the ablation runs at: 2x
// pushes the admission queue deep enough that traces contain queue-wait,
// fetch-wait, drive-swap, and media-transfer stages, and some requests
// shed or expire — the interesting cases for the invariant.
const tracedLoad = 2

// ablationReqtrace runs the overload cell traced and untraced and
// compares every pre-existing metric.
func ablationReqtrace() (*Report, error) {
	spec := OverloadSpec{Arrival: wl.ArrivalPoisson, Load: tracedLoad}
	traced, err := RunOverload(spec)
	if err != nil {
		return nil, fmt.Errorf("request-tracing ablation (traced): %w", err)
	}
	spec.DisableTracing = true
	bare, err := RunOverload(spec)
	if err != nil {
		return nil, fmt.Errorf("request-tracing ablation (untraced): %w", err)
	}
	identical := traced.Stats == bare.Stats && traced.Svc == bare.Svc &&
		traced.ShedRate == bare.ShedRate && traced.P99ms == bare.P99ms

	rep := newReport(fmt.Sprintf("Ablation: request tracing on vs off (overload cell at x%d load)", tracedLoad))
	rep.addf("%-10s %10s %10s %10s %10s", "arm", "goodput", "p99 ms", "traced", "stages")
	rep.addf("%-10s %10.3f %10.0f %10d %10d", "traced",
		traced.Stats.Goodput(), traced.P99ms, traced.TracedRequests, traced.StagesRecorded)
	rep.addf("%-10s %10.3f %10.0f %10d %10d", "untraced",
		bare.Stats.Goodput(), bare.P99ms, bare.TracedRequests, bare.StagesRecorded)
	if identical {
		rep.addf("all pre-existing metrics identical: tracing is free at the simulation level")
	} else {
		rep.addf("METRIC DIVERGENCE: tracing perturbed the run")
	}
	rep.metric("metrics_identical", b2f(identical))
	rep.metric("traced_requests", float64(traced.TracedRequests))
	rep.metric("stages_recorded", float64(traced.StagesRecorded))
	rep.metric("trace_sum_mismatches", float64(traced.TraceErrs))
	if !identical {
		return rep, fmt.Errorf("request-tracing ablation: tracing changed the measured metrics")
	}
	if traced.TraceErrs > 0 {
		return rep, fmt.Errorf("request-tracing ablation: %d traces violate the sum invariant", traced.TraceErrs)
	}
	return rep, nil
}

func b2f(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// ProfileReport measures the sim kernel itself on the wall clock: the
// instrumented migration + demand-fetch workload runs with the kernel
// profiler enabled, and the report shows events/sec, dispatch overhead,
// heap depth, and the most-dispatched procs. These numbers are physical
// (they vary machine to machine and run to run) and are deliberately
// excluded from the deterministic metric set.
func ProfileReport(s Scale) (*Report, error) {
	r := newHLRig(s)
	r.k.EnableProfile()
	if err := r.run(func(p *sim.Proc) error { return migrateAndFetch(p, r, s) }); err != nil {
		return nil, fmt.Errorf("bench: profile workload: %w", err)
	}
	// The wall-clock window closes when the kernel's run loop returns, so
	// the snapshot is taken after it; stopping the daemons dispatches nothing.
	pr := r.k.ProfileSnapshot()
	rep := newReport("Sim kernel self-profile (wall clock; varies by machine — not a tracked metric)")
	rep.addf("events dispatched   %12d   (%d skipped, %d total since boot)",
		pr.Events, pr.SkippedEvents, pr.TotalEvents)
	rep.addf("events/sec          %12.0f", pr.EventsPerSec)
	rep.addf("dispatch overhead   %12.0f ns/event avg (%d ns total)", pr.AvgDispatchNs, pr.DispatchNs)
	rep.addf("proc time           %12d ns   wall %d ns", pr.ProcNs, pr.WallNs)
	rep.addf("event-heap depth    %12d high water", pr.HeapHighWater)
	rep.addf("procs               %12d spawned, %d switches + %d events served in place = %d events",
		pr.Procs, pr.TotalSwitches, pr.InPlaceEvents, pr.TotalEvents)
	for _, tp := range pr.TopProcs {
		rep.addf("  %-24s %10d switches", tp.Name, tp.Switches)
	}
	// Not a tracked snapshot metric (wall clock); kept on the report so
	// tests can assert the profiler measured something.
	rep.metric("events_per_sec", pr.EventsPerSec)
	rep.metric("events", float64(pr.Events))
	return rep, nil
}
