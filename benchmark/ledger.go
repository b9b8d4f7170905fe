package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// The per-layer ledger, read from outside the program: public Stats(),
// obs and sim.Resource accessors, snapshotted before and after the
// measured phase.

// counts is a set of cumulative counters; sub gives the measured-phase
// delta.
type counts map[string]float64

func (c counts) sub(before counts) counts {
	out := make(counts, len(c))
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

const mb = 1 << 20

// snapshot reads every cumulative counter the ledger uses.
func (r *rig) snapshot() counts {
	c := counts{}
	pr := r.k.ProfileSnapshot()
	c["sim.events"] = float64(pr.TotalEvents)
	c["sim.switches"] = float64(pr.TotalSwitches)
	c["sim.procs"] = float64(pr.Procs)
	c["raw.sim.dispatch_ns"] = float64(pr.DispatchNs)

	fs := r.hl.FS.Stats()
	c["lfs.dev_reads"] = float64(fs.DevReads)
	c["lfs.dev_writes"] = float64(fs.DevWrites)
	c["raw.lfs.bytes_written"] = float64(fs.BytesWritten)
	c["lfs.partial_segs"] = float64(fs.PartialSegs)
	c["lfs.flushes"] = float64(fs.Flushes)
	c["lfs.checkpoints"] = float64(fs.Checkpoints)
	c["lfs.segs_cleaned"] = float64(fs.SegsCleaned)
	c["raw.lfs.buf_hits"] = float64(fs.CacheHits)
	c["raw.lfs.buf_misses"] = float64(fs.CacheMisses)

	c["core.migrate_sim_ms"] = ms(r.obs.CatTotal("core.migrate"))
	c["core.ckpt_sim_ms"] = ms(r.obs.CatTotal("core.ckpt"))
	c["core.clean_sim_ms"] = ms(r.obs.CatTotal("core.clean"))

	for i, d := range r.disks {
		ds := d.Stats()
		c["dev.reads"] += float64(ds.Reads)
		c["dev.writes"] += float64(ds.Writes)
		c["dev.bytes_read"] += float64(ds.BytesRead)
		c["dev.bytes_written"] += float64(ds.BytesWritten)
		c["dev.faults"] += float64(ds.ReadFaults + ds.WriteFaults)
		c["dev.arm_busy_sim_ms"] += ms(d.ArmBusyTotal())
		c["dev.arm_wait_sim_ms"] += ms(d.ArmWaitTotal())
		c[componentKey(i)] = float64(ds.Reads + ds.Writes)
	}
	for _, b := range r.buses {
		c["dev.bus_busy_sim_ms"] += ms(b.BusyTotal())
		c["dev.bus_wait_sim_ms"] += ms(b.WaitTotal())
	}

	cs := r.hl.Cache.Stats()
	c["cache.hits"] = float64(cs.Hits)
	c["cache.misses"] = float64(cs.Misses)
	c["cache.inserts"] = float64(cs.Inserts)
	c["cache.evicts"] = float64(cs.Evicts)
	c["cache.staging_lines"] = float64(cs.StagingLines)

	ts := r.hl.Svc.Stats()
	c["tertiary.fetches"] = float64(ts.Fetches)
	c["tertiary.copyouts"] = float64(ts.Copyouts)
	c["tertiary.bytes_in"] = float64(r.obs.Counter("tertiary.bytes_in").Value())
	c["tertiary.bytes_out"] = float64(r.obs.Counter("tertiary.bytes_out").Value())
	c["tertiary.queue_sim_ms"] = ms(r.obs.CatTotal("svc.queue"))
	c["tertiary.io_read_sim_ms"] = ms(r.obs.CatTotal("io.read"))
	c["tertiary.io_write_sim_ms"] = ms(r.obs.CatTotal("io.write"))
	c["tertiary.retries"] = float64(ts.TransientRetries)
	c["tertiary.replica_redirects"] = float64(ts.ReplicaRedirects)
	c["tertiary.faults"] = float64(ts.FetchFaults + ts.CopyoutFaults)

	for _, j := range r.jukes {
		js := j.Stats()
		c["jukebox.swaps"] += float64(js.Swaps)
		c["jukebox.swap_sim_ms"] += ms(js.SwapTime)
		c["jukebox.reads"] += float64(js.Reads)
		c["jukebox.writes"] += float64(js.Writes)
		c["jukebox.bytes_read"] += float64(js.BytesRead)
		c["jukebox.bytes_written"] += float64(js.BytesWritten)
		c["jukebox.read_sim_ms"] += ms(js.ReadTime)
		c["jukebox.write_sim_ms"] += ms(js.WriteTime)
		c["jukebox.faults"] += float64(js.ReadFaults + js.WriteFaults + js.LoadFaults)
	}

	if r.fe != nil {
		ss := r.fe.Stats()
		c["svc.admitted"] = float64(ss.Admitted)
		c["svc.completed"] = float64(ss.Completed)
		c["svc.shed"] = float64(ss.Shed)
		c["svc.expired_in_queue"] = float64(ss.ExpiredInQueue)
		c["svc.deadline_misses"] = float64(ss.DeadlineMisses)
		c["svc.failed"] = float64(ss.Failed)
		c["svc.retries_granted"] = float64(ss.RetriesGranted)
		_, _, stages := r.fe.Tracer.Counts()
		c["obs.reqtrace_stages"] = float64(stages)
	}
	for _, a := range r.obs.Aggregates() {
		c["obs.spans"] += float64(a.Count)
	}
	return c
}

// Keys under "raw." are inputs to derived metrics, not metrics themselves.
func componentKey(i int) string { return fmt.Sprintf("raw.stripe.component.%d", i) }

// layerMetrics turns the measured-phase deltas, the recorder's call totals
// and the op ledger into the exact (virtual-clock and count) per-layer
// metrics. They must be identical on traced and untraced reps.
func layerMetrics(d counts, r *rig, st *state, heapHighWater int) map[string]float64 {
	m := map[string]float64{}
	for k, v := range d {
		if !strings.HasPrefix(k, "raw.") {
			m[k] = v
		}
	}
	m["sim.heap_high_water"] = float64(heapHighWater)
	m["lfs.bytes_written_per_user_byte"] = ratio(d["raw.lfs.bytes_written"], float64(st.bytes))
	m["lfs.buf_hit_rate"] = ratio(d["raw.lfs.buf_hits"], d["raw.lfs.buf_hits"]+d["raw.lfs.buf_misses"])
	m["cache.hit_rate"] = ratio(d["cache.hits"], d["cache.hits"]+d["cache.misses"])

	ops, top := 0.0, 0.0
	for i := range r.disks {
		v := d[componentKey(i)]
		ops += v
		top = math.Max(top, v)
	}
	m["stripe.component_ops"] = ops
	m["stripe.max_component_share"] = ratio(top, ops)

	lfsT, migT := r.rec.layer("lfs"), r.rec.layer("migrate")
	m["lfs.calls"], m["lfs.sim_ms"] = float64(lfsT.Calls), ms(lfsT.Sim)
	m["migrate.calls"] = float64(migT.Calls)

	fw := durationsMs(r.fetchWaits)
	m["tertiary.fetch_wait_p50_sim_ms"] = quantile(fw, 0.5)
	m["tertiary.fetch_wait_tail_sim_ms"] = quantile(fw, tailPercentile(len(fw)))
	qw := durationsMs(st.queueWaits)
	m["svc.queue_wait_p50_sim_ms"] = quantile(qw, 0.5)
	m["svc.queue_wait_tail_sim_ms"] = quantile(qw, tailPercentile(len(qw)))
	for _, k := range exactLayerZero {
		if _, ok := m[k]; !ok {
			m[k] = 0 // no front end on this workload
		}
	}
	return m
}

// exactLayerZero are the metrics of layers a rig may not have at all.
var exactLayerZero = []string{
	"svc.admitted", "svc.completed", "svc.shed", "svc.expired_in_queue", "svc.deadline_misses",
	"svc.failed", "svc.retries_granted", "obs.reqtrace_stages",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durationsMs(ds []sim.Time) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// tailPercentile is the highest percentile of the ladder that still has at
// least ten samples beyond it; the median when even p75 does not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.90, 0.75} {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0.5
}

// quantile is the nearest-rank p-quantile of xs (0 when empty). It does not
// modify xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns the first quartile, median and third quartile by
// linear interpolation at rank q(n+1), as Python's
// statistics.quantiles(n=4) does (clamped at the ends, not extrapolated).
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// allocLayers are the packages heap allocations are attributed to.
var allocLayers = []string{"lfs", "core", "migrate", "stripe", "dev", "tertiary", "jukebox", "svc", "obs"}

// allocByLayer reads the heap profile and attributes each record's
// allocated bytes to the innermost repro/internal/<pkg> frame of its stack
// (sub-packages count toward their parent). The caller runs runtime.GC
// first so the profile is complete.
func allocByLayer() counts {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	out := counts{}
	const prefix = "repro/internal/"
	for i := range recs {
		rec := &recs[i]
		frames := runtime.CallersFrames(rec.Stack())
		for {
			fr, more := frames.Next()
			if strings.HasPrefix(fr.Function, prefix) {
				pkg := fr.Function[len(prefix):]
				if j := strings.IndexAny(pkg, "./"); j >= 0 {
					pkg = pkg[:j]
				}
				out[pkg] += float64(rec.AllocBytes)
				break
			}
			if !more {
				break
			}
		}
	}
	return out
}
