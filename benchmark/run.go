package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/fsck"
	"repro/internal/sim"
)

// repResult is what one repetition measured.
type repResult struct {
	traced bool

	// Virtual clock and exact counts: identical on every rep of a run.
	simSeconds float64
	bytes      int64
	attempted  int
	failed     int
	p50, tail  float64 // ms
	tailPct    float64
	samples    int
	exact      map[string]float64 // per-layer metrics that must repeat exactly
	paperErr   float64            // -1: no like-for-like row

	// Host clock.
	setupS  float64
	wallS   float64
	allocMB float64
	host    map[string]float64 // per-layer host metrics (traced reps fill all of them)

	rec *recorder
}

// runRep builds a fresh kernel and rig, sets up, measures, and verifies
// outside the timed region. With last set it also runs fsck.
func runRep(w *workload, seed uint64, tiny, traced, last bool) (*repResult, error) {
	res := &repResult{traced: traced, host: map[string]float64{}}
	if traced {
		// Sample every allocation's stack for the length of this rep, set
		// before set-up so the rate is long in effect when measuring
		// starts; untraced reps keep the runtime default.
		defer func(old int) { runtime.MemProfileRate = old }(runtime.MemProfileRate)
		runtime.MemProfileRate = 1
	}
	st := &state{seed: seed, tiny: tiny}
	rec := newRecorder(traced)
	res.rec = rec
	k := sim.NewKernel()
	defer k.Stop()

	var r *rig
	var err error
	t0 := time.Now()
	k.RunProc(func(p *sim.Proc) {
		if r, err = w.rig(tiny).build(p, rec, traced); err == nil {
			err = w.setup(p, r, st)
		}
	})
	res.setupS = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}

	if traced {
		k.EnableProfile()
	}
	runtime.GC()
	var alloc0 counts
	if traced {
		alloc0 = allocByLayer()
	}
	before := r.snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	simStart := k.Now()
	rec.arm()
	t1 := time.Now()
	k.RunProc(func(p *sim.Proc) { err = w.measure(p, r, st) })
	res.wallS = time.Since(t1).Seconds()
	rec.disarm()
	runtime.ReadMemStats(&m1)
	res.simSeconds = (k.Now() - simStart).Seconds()
	delta := r.snapshot().sub(before)
	if err != nil {
		return nil, fmt.Errorf("%s measured phase: %w", w.name, err)
	}

	res.bytes, res.attempted, res.failed = st.bytes, st.attempted, st.failed
	lat := durationsMs(st.lat)
	res.samples = len(lat)
	res.tailPct = tailPercentile(len(lat))
	res.p50, res.tail = quantile(lat, 0.5), quantile(lat, res.tailPct)
	res.exact = layerMetrics(delta, r, st, k.ProfileSnapshot().HeapHighWater)
	res.paperErr = -1
	for _, row := range st.paperRows {
		res.paperErr = math.Max(res.paperErr, 100*math.Abs(row.measured-row.paper)/row.paper)
	}

	res.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mb
	h := res.host
	h["go.mallocs"] = float64(m1.Mallocs - m0.Mallocs)
	h["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	h["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	h["go.heap_sys_MB"] = float64(m1.HeapSys) / mb
	h["sim.host_us_per_event"] = ratio(res.wallS*1e6, delta["sim.events"])
	if traced {
		h["sim.dispatch_ns_per_event"] = ratio(delta["raw.sim.dispatch_ns"], delta["sim.events"])
		h["lfs.host_ms"] = ms(rec.layer("lfs").HostNs)
		h["migrate.host_ms"] = ms(rec.layer("migrate").HostNs)
		h["dev.host_ms"] = ms(rec.layer("dev").HostNs)
		h["jukebox.host_ms"] = ms(rec.layer("jukebox").HostNs)
		runtime.GC()
		alloc := allocByLayer().sub(alloc0)
		for _, l := range allocLayers {
			h[l+".alloc_MB"] = alloc[l] / mb
		}
	}

	// Verification, outside the timed region. Content was checked on every
	// read of the measured phase; here the data is read back and, after
	// the last rep, the whole file system is checked.
	k.RunProc(func(p *sim.Proc) {
		if w.verify != nil {
			if err = w.verify(p, r, st); err != nil {
				return
			}
		}
		if !last {
			return
		}
		err = checkFS(p, w, r, tiny)
	})
	if err != nil {
		return nil, fmt.Errorf("%s verification: %w", w.name, err)
	}
	return res, nil
}

// checkFS runs fsck and fails on any problem, with one exception: lfs
// under-counts the live bytes of a few segments once a file is large enough
// for its indirect blocks to be re-logged, which stock wl.CreateLargeObject
// plus fsck.Check shows at the parent commit too (README.md records it).
// This benchmark may not change the program, so up to w.fsckUndercount such
// segments are reported on standard error and tolerated; that is non-zero
// only for largeobj at paper scale, at the count seen at the parent commit,
// so the problem spreading to more segments or to another workload fails
// the run.
func checkFS(p *sim.Proc, w *workload, r *rig, tiny bool) error {
	rep, err := fsck.Check(p, r.hl)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	tolerated := w.fsckUndercount
	if tiny {
		tolerated = 0
	}
	known, bad := judgeFsck(rep.Problems, tolerated)
	if known > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: fsck: %d segments with under-counted live bytes (known issue, at most %d tolerated, see benchmark/README.md)\n", known, tolerated)
	}
	if len(bad) > 0 {
		return fmt.Errorf("fsck found %d problems:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}

// judgeFsck splits fsck's problems into the tolerated under-counts (known,
// at most tolerated of them) and everything the run fails on.
func judgeFsck(problems []fsck.Problem, tolerated int) (known int, bad []string) {
	var under []string
	for _, pr := range problems {
		if strings.HasPrefix(pr.Where, "segment ") && strings.HasPrefix(pr.What, "usage table says") {
			under = append(under, pr.String())
		} else {
			bad = append(bad, pr.String())
		}
	}
	if len(under) > tolerated {
		return 0, append(bad, under...)
	}
	return len(under), bad
}

// sameExact reports the first difference between two reps' virtual-clock
// results and exact counts ("" when identical).
func sameExact(a, b *repResult) string {
	pairs := []struct {
		name string
		x, y float64
	}{
		{"sim seconds", a.simSeconds, b.simSeconds}, {"bytes", float64(a.bytes), float64(b.bytes)},
		{"attempted", float64(a.attempted), float64(b.attempted)}, {"failed", float64(a.failed), float64(b.failed)},
		{"op p50", a.p50, b.p50}, {"op tail", a.tail, b.tail},
	}
	for _, p := range pairs {
		if p.x != p.y {
			return fmt.Sprintf("%s: %v != %v", p.name, p.x, p.y)
		}
	}
	keys := make([]string, 0, len(a.exact))
	for k := range a.exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a.exact[k] != b.exact[k] {
			return fmt.Sprintf("%s: %v != %v", k, a.exact[k], b.exact[k])
		}
	}
	return ""
}

// metric is one reported number. Host metrics are medians over reps and
// carry their quartiles and rep count; exact ones are identical on every
// rep.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
	Exact bool    `json:"exact,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// result is one workload's run.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Scale     string            `json:"scale"`
	Traced    bool              `json:"traced"`
	Reps      int               `json:"reps"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Metrics   map[string]metric `json:"metrics"`
}

type runOpts struct {
	seed     uint64
	tiny     bool
	traced   bool
	seconds  float64 // measuring budget; reps are started while they fit
	traceOut string  // directory for <workload>.trace.json ("" = none)
}

// minReps is the fewest measured reps a run reports medians over.
const minReps = 3

// runWorkload runs rep 0 as a discarded warm-up, then measured reps until
// the time budget is spent, then the final rep, which also runs fsck. A traced run alternates untraced and traced
// reps, so its overhead figure and its exactness check compare like with
// like inside one process.
func runWorkload(w *workload, o runOpts) (*result, error) {
	start := time.Now()
	var plain, traced []*repResult
	if _, err := runRep(w, o.seed, o.tiny, false, false); err != nil {
		return nil, err
	}
	longest := 0.0
	for i := 0; ; i++ {
		asTraced := o.traced && i%2 == 1
		done := len(plain) + len(traced)
		// However small the budget, a run has minReps measured reps and a
		// traced run two traced ones to take medians over.
		enough := done >= minReps && (!o.traced || len(traced) >= 2)
		if enough && time.Since(start).Seconds()+2*longest > o.seconds {
			break // the next rep and the final one would not both fit
		}
		t := time.Now()
		rep, err := runRep(w, o.seed, o.tiny, asTraced, false)
		if err != nil {
			return nil, err
		}
		longest = math.Max(longest, time.Since(t).Seconds())
		if asTraced {
			if len(traced) > 0 {
				traced[len(traced)-1].rec = nil // only the last traced rep's spans are written
			}
			traced = append(traced, rep)
		} else {
			plain = append(plain, rep)
		}
	}
	// The last rep also runs fsck; it is measured like the others.
	final, err := runRep(w, o.seed, o.tiny, false, true)
	if err != nil {
		return nil, err
	}
	plain = append(plain, final)

	all := append(append([]*repResult(nil), plain...), traced...)
	for _, rep := range all[1:] {
		if diff := sameExact(all[0], rep); diff != "" {
			return nil, fmt.Errorf("%s: virtual-clock results differ between reps (traced=%v vs traced=%v): %s",
				w.name, all[0].traced, rep.traced, diff)
		}
	}

	res := &result{Workload: w.name, Seed: o.seed, Scale: scaleName(o.tiny), Traced: o.traced,
		Reps: len(plain), Metrics: map[string]metric{}}
	first := plain[0]
	res.Attempted, res.Failed = first.attempted, first.failed
	res.Correct = first.failed == 0

	// End to end. Host numbers come from untraced reps only.
	exact := func(name string, v float64, unit, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit, Exact: true, Note: note}
	}
	exact("sim_MBps", ratio(float64(first.bytes)/mb, first.simSeconds), "MB/s", "")
	exact("sim_op_p50_ms", first.p50, "ms", fmt.Sprintf("n=%d", first.samples))
	exact("sim_op_tail_ms", first.tail, "ms", fmt.Sprintf("p%g n=%d", 100*first.tailPct, first.samples))
	exact("ok_rate", 1-ratio(float64(first.failed), float64(first.attempted)), "ratio",
		fmt.Sprintf("fail_rate=%g", ratio(float64(first.failed), float64(first.attempted))))
	host := func(name, unit string, reps []*repResult, get func(*repResult) float64) {
		q1, med, q3 := quartiles(mapReps(reps, get))
		res.Metrics[name] = metric{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(reps)}
	}
	host("host_wall_s", "s", plain, func(r *repResult) float64 { return r.wallS })
	host("host_alloc_MB", "MB", plain, func(r *repResult) float64 { return r.allocMB })
	host("setup_s", "s", plain, func(r *repResult) float64 { return r.setupS })
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Metrics["host_peak_rss_MB"] = metric{Value: rss, Unit: "MB", N: 1}

	// Per layer.
	for name, v := range first.exact {
		exact(name, v, layerUnit(name), "")
	}
	from := plain
	if o.traced {
		from = traced
	}
	for name := range from[0].host {
		host(name, layerUnit(name), from, func(r *repResult) float64 { return r.host[name] })
	}
	wall := res.Metrics["host_wall_s"]
	res.Metrics["bench.reps"] = metric{Value: float64(len(plain)), Unit: "count", N: 1}
	res.Metrics["bench.rep_iqr_pct"] = metric{Value: 100 * ratio(wall.Q3-wall.Q1, wall.Value), Unit: "%", N: len(plain)}
	if o.traced {
		_, tmed, _ := quartiles(mapReps(traced, func(r *repResult) float64 { return r.wallS }))
		res.Metrics["bench.trace_overhead_pct"] = metric{Value: 100 * (ratio(tmed, wall.Value) - 1), Unit: "%", N: len(traced)}
	}
	pe := metric{Value: first.paperErr, Unit: "%", Exact: true}
	if first.paperErr < 0 {
		pe.Note = "unvalidated"
	}
	res.Metrics["bench.paper_err_pct"] = pe

	if o.traced && o.traceOut != "" {
		path := fmt.Sprintf("%s/%s.trace.json", o.traceOut, w.name)
		if err := traced[len(traced)-1].rec.write(path, w.name, o.seed); err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return res, nil
}

func mapReps(reps []*repResult, get func(*repResult) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = get(r)
	}
	return xs
}

func scaleName(tiny bool) string {
	if tiny {
		return "tiny"
	}
	return "paper"
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_MB"):
		return "MB"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_rate"), strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_per_user_byte"):
		return "ratio"
	case strings.HasSuffix(name, "ns_per_event"):
		return "ns"
	case strings.HasSuffix(name, "us_per_event"):
		return "us"
	case strings.Contains(name, "bytes"):
		return "B"
	}
	return "count"
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if _, err := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM in /proc/self/status")
}
