package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/obs"
	"repro/internal/sim"
)

// obsFaultResult is everything one instrumented fault-plan run exposes:
// the Chrome trace bytes plus the counters the reconciliation compares.
type obsFaultResult struct {
	trace         []byte
	retries       int64 // svc.Stats().TransientRetries
	retryEvents   int64 // obs "io.retry" instants
	exhausted     int64
	fetches       int64 // svc.Stats().Fetches
	fetchCounter  int64 // obs "tertiary.fetches"
	cacheHits     int64
	cacheMisses   int64
	heatHits      int64 // summed over the heat-map snapshot
	heatMisses    int64
	heatFetches   int64
	auditRecorded int64
}

// runObsFaultWorkload runs a scripted migrate → eject → demand-fetch
// workload under a seeded transient-fault plan with full trace
// retention, then collects the trace and every counter family that is
// supposed to agree: the tertiary service's own stats, the obs domain's
// counters and instants, and the heat-attribution table.
func runObsFaultWorkload(t *testing.T) obsFaultResult {
	t.Helper()
	const segBlocks = 16
	k := sim.NewKernel()
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	disk := dev.NewDisk(k, dev.RZ57, int64(160*segBlocks), bus)
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 24, segBlocks*lfs.BlockSize, bus)

	o := obs.New(k)
	o.EnableTrace()
	disk.SetObs(o, "")
	juke.SetObs(o, "")

	// Transient-only faults: every injected error must be retried to
	// success, so no counter family can legitimately disagree via lost
	// segments. (Drive outages and failovers are the chaos soak's job.)
	plan := fault.NewPlan(fault.Config{
		Seed:               7,
		TransientReadRate:  0.2,
		TransientWriteRate: 0.2,
		MaxBurst:           2,
	})
	plan.InstallJukebox("mo", juke)
	plan.Start(k)

	var res obsFaultResult
	k.RunProc(func(p *sim.Proc) {
		hl, err := New(p, Config{
			SegBlocks:   segBlocks,
			Disks:       []dev.BlockDev{disk},
			Jukeboxes:   []jukebox.Footprint{juke},
			CacheSegs:   16,
			MaxInodes:   128,
			BufferBytes: 1 << 20,
			Obs:         o,
		}, true)
		if err != nil {
			t.Fatal(err)
		}
		var inums []uint32
		for i := 0; i < 6; i++ {
			f, err := hl.FS.Create(p, fmt.Sprintf("/f%d", i))
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, (8+4*i)*lfs.BlockSize)
			for j := range data {
				data[j] = byte(j * (i + 3))
			}
			if _, err := f.WriteAt(p, data, 0); err != nil {
				t.Fatal(err)
			}
			inums = append(inums, f.Inum())
		}
		if _, err := hl.MigrateFiles(p, inums, true); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		// Demand fetches: drop buffers, eject every clean line, read back.
		for i := 0; i < 6; i++ {
			f, err := hl.FS.Open(p, fmt.Sprintf("/f%d", i))
			if err != nil {
				t.Fatal(err)
			}
			hl.FS.DropFileBuffers(p, f.Inum())
		}
		for _, l := range hl.Cache.Lines() {
			if l.Staging || l.Pins > 0 {
				continue
			}
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 6; i++ {
			f, err := hl.FS.Open(p, fmt.Sprintf("/f%d", i))
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 4*lfs.BlockSize)
			if _, err := f.ReadAt(p, buf, 0); err != nil {
				t.Fatal(err)
			}
		}

		ss := hl.Svc.Stats()
		cs := hl.Cache.Stats()
		res.retries = ss.TransientRetries
		res.exhausted = ss.RetriesExhausted
		res.fetches = ss.Fetches
		res.cacheHits = cs.Hits
		res.cacheMisses = cs.Misses
		res.auditRecorded = hl.Audit.Total()
		for tag := range hl.FS.TsegCount() {
			e, _ := hl.Heat.Seg(tag)
			res.heatHits += e.Hits
			res.heatMisses += e.Misses
			res.heatFetches += e.Fetches
		}
	})
	k.Stop()

	res.retryEvents = o.CatCount("io.retry")
	res.fetchCounter = o.Counter("tertiary.fetches").Value()
	if h, m := o.Counter("cache.hits").Value(), o.Counter("cache.misses").Value(); h != res.cacheHits || m != res.cacheMisses {
		t.Errorf("obs counted %d cache hits / %d misses, cache %d / %d", h, m, res.cacheHits, res.cacheMisses)
	}

	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	res.trace = buf.Bytes()
	return res
}

// TestObsFaultTraceDeterministic pins the obs × fault interplay: with a
// seeded transient-fault plan injecting errors into the run, the
// retained Chrome trace must still be byte-identical across runs —
// fault injection, retry scheduling, and tracing all live on the same
// virtual clock.
func TestObsFaultTraceDeterministic(t *testing.T) {
	a := runObsFaultWorkload(t)
	b := runObsFaultWorkload(t)
	if !bytes.Equal(a.trace, b.trace) {
		t.Fatal("two identical fault-plan runs produced different traces")
	}
	if !bytes.Contains(a.trace, []byte(`"cat":"io.retry"`)) {
		t.Fatal("trace retained no io.retry instants despite injected transients")
	}
}

// TestObsFaultCountersReconcile cross-checks every counter family that
// records the same underlying events: the tertiary service's stats, the
// obs domain, and the heat-attribution table must agree exactly — under
// fault injection, not just on the happy path.
func TestObsFaultCountersReconcile(t *testing.T) {
	r := runObsFaultWorkload(t)
	if r.retries == 0 {
		t.Fatal("fault plan injected no retried transients; raise rates or change the seed")
	}
	if r.exhausted != 0 {
		t.Fatalf("%d operations exhausted the retry budget (transient-only plan must recover)", r.exhausted)
	}
	if r.retryEvents != r.retries {
		t.Errorf("obs saw %d io.retry instants, service retried %d times", r.retryEvents, r.retries)
	}
	if r.fetches == 0 {
		t.Fatal("workload performed no demand fetches")
	}
	if r.fetchCounter != r.fetches {
		t.Errorf("obs counted %d fetches, service %d", r.fetchCounter, r.fetches)
	}
	if r.heatFetches != r.fetches {
		t.Errorf("heat table attributed %d fetches, service performed %d", r.heatFetches, r.fetches)
	}
	if r.heatHits != r.cacheHits || r.heatMisses != r.cacheMisses {
		t.Errorf("heat table attributed %d hits / %d misses, cache counted %d / %d",
			r.heatHits, r.heatMisses, r.cacheHits, r.cacheMisses)
	}
	if r.auditRecorded == 0 {
		t.Fatal("migration under faults recorded no audit decisions")
	}
}
