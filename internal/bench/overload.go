package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/wl"
)

// Overload study: offered load versus goodput through the admission-
// controlled front end. The rig is deliberately fetch-bound (a segment
// cache half the size of the migrated working set, a small file-system
// buffer) so request service time is dominated by tertiary demand
// fetches and the two workers saturate at a measurable capacity; load
// multiples are then applied by scaling the client population.

// OverloadSpec parameterizes one closed-loop overload run (the hlbench
// -clients/-arrival/-deadline entry point and the ablation cells).
// Clients defaults to overloadBaseClients x Load: in a closed-loop system
// offered load scales with concurrency, not think time — N clients can
// never have more than N requests outstanding, so doubling the arrival
// rate of a fixed population just makes them wait, while doubling the
// population actually doubles the pressure on the admission queue.
type OverloadSpec struct {
	Clients  int
	Requests int // per client
	Arrival  wl.Arrival
	Deadline sim.Time
	Load     float64 // offered-load multiple of the 1x base concurrency
	// DisableTracing turns the per-request tracer off — the control arm
	// of the ablation proving tracing never moves a metric.
	DisableTracing bool
}

// OverloadResult is one measured cell of the overload study.
type OverloadResult struct {
	Stats    wl.ClientStats
	Svc      svc.Stats
	ShedRate float64 // sheds / distinct requests
	P99ms    float64 // interactive admission-to-completion p99

	TracedRequests int64  // traces sealed (0 with tracing disabled)
	StagesRecorded int64  // stages across all sealed traces
	TraceErrs      int64  // retained traces violating the sum invariant
	RequestsJSON   []byte // the /requests document at end of run
}

// overloadBaseClients x overloadBaseGap set the 1x operating point: four
// clients with 1.2 s think time keep the two fetch-bound workers busy
// without queueing; each doubling of the population pushes the admission
// queue (capacity 4) deeper until it sheds.
const (
	overloadBaseClients = 4
	overloadBaseGap     = 1200 * sim.Time(1e6)
	overloadPathFmt     = "/f%02d"
)

func (spec *OverloadSpec) fill() {
	if spec.Load <= 0 {
		spec.Load = 1
	}
	if spec.Clients <= 0 {
		spec.Clients = int(float64(overloadBaseClients)*spec.Load + 0.5)
		if spec.Clients < 1 {
			spec.Clients = 1
		}
	}
	if spec.Requests <= 0 {
		spec.Requests = 25
	}
	if spec.Deadline <= 0 {
		spec.Deadline = 5 * sim.Time(1e9)
	}
}

// frontEndGeom is the rig behind the overload study and the policy
// shootout: a small single-library instance on private channels whose
// segment cache (4 lines) holds half the overload working set and whose
// file-system buffer is tiny, so reads stay fetch-bound.
var frontEndGeom = studyGeom{
	segBlocks: 64, disks: 1, diskSegs: 256,
	libs: 1, vols: 6, volSegs: 32,
	cacheSegs: 4, inodes: 256, bufBytes: 32 * lfs.BlockSize,
}

// RunOverload executes one overload cell on a fresh rig.
func RunOverload(spec OverloadSpec) (OverloadResult, error) {
	spec.fill()
	var res OverloadResult
	err := newStudyRig(frontEndGeom).run(nil, func(p *sim.Proc, hl *core.HighLight) error {
		fe := svc.New(hl, svc.Config{
			Workers: 2, ReservedInteractive: 1,
			InteractiveQueue: 4, BackgroundQueue: 4,
			DisableTracing: spec.DisableTracing,
		})

		// Working set: 20 files across ~8 tertiary segments, fully migrated
		// and ejected so reads demand-fetch through the cache.
		const nfiles = 20
		inums, err := writeFiles(p, hl.FS, overloadPathFmt, nfiles, 24)
		if err != nil {
			return err
		}
		paths := make([]string, nfiles)
		for i := range paths {
			paths[i] = fmt.Sprintf(overloadPathFmt, i)
		}
		if err := hl.FS.Sync(p); err != nil {
			return err
		}
		if _, err := migrateAll(p, hl, inums); err != nil {
			return err
		}
		if _, err := hl.Svc.EjectAll(); err != nil {
			return err
		}

		cs, err := wl.RunClients(p, fe, hl, paths, wl.ClientSpec{
			Clients:           spec.Clients,
			RequestsPerClient: spec.Requests,
			Arrival:           spec.Arrival,
			MeanGap:           overloadBaseGap,
			Deadline:          spec.Deadline,
			ReadBlocks:        2,
			Seed:              20260808,
		})
		if err != nil {
			return err
		}
		st := fe.Stats()
		distinct := cs.Submitted - cs.Retries
		res = OverloadResult{Stats: cs, Svc: st}
		if distinct > 0 {
			res.ShedRate = float64(cs.Shed) / float64(distinct)
		}
		res.P99ms = float64(st.P99Interactive.Milliseconds())
		if fe.Tracer != nil {
			_, res.TracedRequests, res.StagesRecorded = fe.Tracer.Counts()
			res.RequestsJSON = renderRequests(fe.Tracer, p.Now())
			// Property-check every retained trace: stages sealed, breakdown
			// summing exactly to the end-to-end latency.
			for _, tr := range append(fe.Tracer.Recent(), fe.Tracer.Slowest("", 1<<30)...) {
				if tr.Validate() != nil {
					res.TraceErrs++
				}
			}
		}
		return nil
	})
	return res, err
}

// AblationOverload sweeps offered load at 0.5x/1x/2x/4x the base rate and
// reports goodput, shed rate, and interactive p99 — the graceful-
// degradation curve: goodput holds near capacity while the excess is shed
// explicitly (ErrOverload) or expired at its deadline, and p99 stays
// bounded by the deadline instead of growing with the queue.
func AblationOverload() (*Report, error) {
	rep := newReport("Ablation: offered load vs goodput through the front end (closed-loop poisson clients, 5 s deadline)")
	rep.addf("%-6s %10s %10s %10s %10s %10s", "load", "goodput", "shed rate", "p99 ms", "completed", "shed")
	for _, load := range []float64{0.5, 1, 2, 4} {
		res, err := RunOverload(OverloadSpec{Arrival: wl.ArrivalPoisson, Load: load})
		if err != nil {
			return rep, fmt.Errorf("overload x%g: %w", load, err)
		}
		name := fmt.Sprintf("x%g", load)
		rep.addf("%-6s %10.3f %10.3f %10.0f %10d %10d",
			name, res.Stats.Goodput(), res.ShedRate, res.P99ms, res.Stats.Completed, res.Stats.Shed)
		rep.metric(name+"/goodput", res.Stats.Goodput())
		rep.metric(name+"/shed_rate", res.ShedRate)
		rep.metric(name+"/p99_ms", res.P99ms)
	}
	return rep, nil
}

// OverloadReport runs one cell with the given spec and formats it — the
// hlbench -clients/-arrival/-deadline entry point.
func OverloadReport(spec OverloadSpec) (*Report, error) {
	explicit := spec.Clients > 0
	spec.fill()
	res, err := RunOverload(spec)
	if err != nil {
		return nil, err
	}
	// The load multiple only means something when it derived the
	// population; an explicit -clients count speaks for itself.
	head := fmt.Sprintf("Overload run: %d %s clients, %s deadline",
		spec.Clients, spec.Arrival, spec.Deadline)
	if !explicit {
		head = fmt.Sprintf("Overload run: %d %s clients (x%g load), %s deadline",
			spec.Clients, spec.Arrival, spec.Load, spec.Deadline)
	}
	rep := newReport(head)
	rep.addf("submitted %d (retries %d)  completed %d  shed %d  expired %d  failed %d",
		res.Stats.Submitted, res.Stats.Retries, res.Stats.Completed,
		res.Stats.Shed, res.Stats.Expired, res.Stats.Failed)
	rep.addf("goodput %.3f  shed rate %.3f  interactive p50 %v p99 %v  deadline misses %d",
		res.Stats.Goodput(), res.ShedRate,
		res.Svc.P50Interactive, res.Svc.P99Interactive, res.Svc.DeadlineMisses)
	rep.metric("goodput", res.Stats.Goodput())
	rep.metric("shed_rate", res.ShedRate)
	rep.metric("p99_ms", res.P99ms)
	return rep, nil
}
