package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lfs"
	"repro/internal/migrate"
	"repro/internal/sim"
)

// Ablations for the policy knobs the paper leaves open (§5): cache
// eviction policy, copy-out scheduling, STP ranking exponents, and
// whole-file versus block-range migration. Each returns a Report with the
// measured trade-off.

// policyGeom is a mid-size instance for the policy studies, its segment
// cache deliberately scarce so that eviction policy matters.
var policyGeom = studyGeom{
	segBlocks: 256, disks: 1, diskSegs: 192, sharedBus: true,
	libs: 1, vols: 8, volSegs: 40,
	cacheSegs: 8, inodes: 1024, bufBytes: 1 << 20,
}

// smallSegGeom has small (32-block) segments, so a modest workload issues
// enough tertiary segment operations for per-operation effects — a 1%
// fault rate, the replay of a few log segments — to be visible.
var smallSegGeom = studyGeom{
	segBlocks: 32, disks: 1, diskSegs: 384, sharedBus: true,
	libs: 1, vols: 8, volSegs: 60,
	cacheSegs: 8, inodes: 1024, bufBytes: 1 << 20,
}

// AblationCachePolicy compares segment-cache eviction policies (§5.4:
// "cache flushing could be handled by any of the standard policies") on a
// workload with reuse locality: 24 migrated files, accessed with an 80/20
// split between a hot subset and the long tail.
func AblationCachePolicy() (*Report, error) {
	rep := newReport("Ablation: segment cache eviction policy (8-line cache, 80/20 reuse)")
	rep.addf("%-18s %10s %12s %12s", "policy", "fetches", "cache hits", "elapsed")
	for _, c := range []struct {
		name   string
		policy cache.Policy
	}{
		{"LRU", cache.LRU},
		{"FIFO", cache.FIFO},
		{"Random", cache.Random},
		{"SLRU (default)", cache.SLRU},
	} {
		setPolicy := func(cfg *core.Config) { cfg.CachePolicy = c.policy }
		err := newStudyRig(policyGeom).run(setPolicy, func(p *sim.Proc, hl *core.HighLight) error {
			const nfiles = 24
			inums, err := writeFiles(p, hl.FS, "/f%02d", nfiles, 255)
			if err != nil {
				return err
			}
			if _, err := migrateAll(p, hl, inums); err != nil {
				return err
			}
			if _, err := hl.Svc.EjectAll(); err != nil {
				return err
			}
			// Access pattern: 80% to 4 hot files, 20% to the tail.
			rng := sim.NewRNG(11)
			buf := make([]byte, lfs.BlockSize)
			start := p.Now()
			for q := 0; q < 300; q++ {
				var i int
				if rng.Intn(100) < 80 {
					i = rng.Intn(4)
				} else {
					i = 4 + rng.Intn(nfiles-4)
				}
				f, err := hl.FS.OpenInum(p, inums[i])
				if err != nil {
					return err
				}
				hl.FS.DropFileBuffers(p, inums[i])
				if _, err := f.ReadAt(p, buf, int64(rng.Intn(255))*lfs.BlockSize); err != nil && err != io.EOF {
					return err
				}
			}
			elapsed := (p.Now() - start).Seconds()
			fetches := hl.Svc.Stats().Fetches
			rep.addf("%-18s %10d %12d %10.1f s", c.name, fetches, hl.Cache.Stats().Hits, elapsed)
			rep.metric(c.name+"/fetches", float64(fetches))
			rep.metric(c.name+"/elapsed", elapsed)
			return nil
		})
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// AblationCopyout compares immediate versus delayed copy-out scheduling
// (§5.4 "writing fresh tertiary segments"): a migration runs while an
// interactive application keeps reading a disk-resident file; delayed
// copy-outs keep the disk arm free of I/O-server reads during staging at
// the cost of reserved disk space and a long drain afterwards.
func AblationCopyout() (*Report, error) {
	rep := newReport("Ablation: immediate vs delayed tertiary copy-outs (§5.4)")
	rep.addf("%-12s %16s %16s %14s", "schedule", "interactive avg", "staging done", "all durable")
	for _, c := range []struct {
		name    string
		delayed bool
	}{{"immediate", false}, {"delayed", true}} {
		err := newStudyRig(policyGeom).run(nil, func(p *sim.Proc, hl *core.HighLight) error {
			hl.DelayCopyouts = c.delayed
			hot, err := writeFile(p, hl.FS, "/interactive", 256)
			if err != nil {
				return err
			}
			bulk, err := writeFile(p, hl.FS, "/bulk", 6*256)
			if err != nil {
				return err
			}
			if err := hl.FS.Sync(p); err != nil {
				return err
			}
			// Interactive reader in the background.
			var reads int
			var readTime sim.Time
			var readErr error
			stop := false
			hl.K.GoDaemon("reader", func(rp *sim.Proc) {
				buf := make([]byte, lfs.BlockSize)
				rng := sim.NewRNG(3)
				for !stop {
					rp.Sleep(200 * time.Millisecond)
					hl.FS.DropFileBuffers(rp, hot.Inum())
					t0 := rp.Now()
					if _, err := hot.ReadAt(rp, buf, int64(rng.Intn(256))*lfs.BlockSize); err != nil && err != io.EOF {
						readErr = err
						return
					}
					readTime += rp.Now() - t0
					reads++
				}
			})
			start := p.Now()
			if _, err := hl.MigrateFiles(p, []uint32{bulk.Inum()}, false); err != nil {
				return err
			}
			stagingDone := (p.Now() - start).Seconds()
			stop = true
			if err := hl.CompleteMigration(p); err != nil {
				return err
			}
			total := (p.Now() - start).Seconds()
			// A reader that gave up would leave the average computed over
			// fewer reads than the staging phase had room for.
			if readErr != nil {
				return fmt.Errorf("interactive reader: %w", readErr)
			}
			var avgRead float64
			if reads > 0 {
				avgRead = readTime.Seconds() / float64(reads) * 1000
			}
			rep.addf("%-12s %13.1f ms %13.1f s %11.1f s", c.name, avgRead, stagingDone, total)
			rep.metric(c.name+"/interactive-ms", avgRead)
			rep.metric(c.name+"/staging-s", stagingDone)
			rep.metric(c.name+"/total-s", total)
			return nil
		})
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// AblationSTP compares space-time-product exponents (§5.1): pure
// access-time ranking (size exponent 0), pure size ranking (time exponent
// 0), and the recommended STP (both 1). Quality metric: demand fetches
// when "the future" re-reads the files that were accessed most recently —
// fewer fetches mean the policy migrated the right (dormant) data.
func AblationSTP() (*Report, error) {
	rep := newReport("Ablation: STP ranking exponents (§5.1)")
	rep.addf("%-22s %10s %14s", "policy", "fetches", "future reread")
	for _, c := range []struct {
		name             string
		timeExp, sizeExp float64
	}{
		{"atime only (t^1)", 1, 0},
		{"size only (s^1)", 0, 1},
		{"STP (t^1 * s^1)", 1, 1},
	} {
		err := newStudyRig(policyGeom).run(nil, func(p *sim.Proc, hl *core.HighLight) error {
			// populate writes four big and four small files, interleaved.
			populate := func(age string, bigBlocks int) ([]*lfs.File, error) {
				var files []*lfs.File
				for i := 0; i < 4; i++ {
					for _, f := range []struct {
						size   string
						blocks int
					}{{"big", bigBlocks}, {"small", 16}} {
						file, err := writeFile(p, hl.FS, fmt.Sprintf("/%s-%s-%d", age, f.size, i), f.blocks)
						if err != nil {
							return nil, err
						}
						files = append(files, file)
					}
				}
				return files, nil
			}
			// Dormant files of both sizes, then — a day later — recently
			// touched ones. The recent big files are slightly larger, so a
			// pure size ranking prefers exactly the wrong candidates.
			if _, err := populate("dormant", 400); err != nil {
				return err
			}
			p.Sleep(24 * time.Hour)
			recent, err := populate("recent", 550)
			if err != nil {
				return err
			}
			buf := make([]byte, lfs.BlockSize)
			for _, f := range recent {
				if _, err := f.ReadAt(p, buf, 0); err != nil && err != io.EOF {
					return err
				}
			}
			m := migrate.NewMigrator(hl)
			m.Policy = &migrate.STP{TimeExp: c.timeExp, SizeExp: c.sizeExp}
			// Free half the data's worth of disk.
			if _, err := m.RunOnce(p, 7<<20); err != nil {
				return err
			}
			if _, err := hl.Svc.EjectAll(); err != nil {
				return err
			}
			// The future: recently-active files get read again.
			start := p.Now()
			for _, f := range recent {
				sz, err := f.Size(p)
				if err != nil {
					return err
				}
				if _, err := readChunks(p, f, int64(sz), buf); err != nil {
					return err
				}
			}
			rereadS := (p.Now() - start).Seconds()
			fetches := hl.Svc.Stats().Fetches
			rep.addf("%-22s %10d %11.1f s", c.name, fetches, rereadS)
			rep.metric(c.name+"/fetches", float64(fetches))
			rep.metric(c.name+"/reread-s", rereadS)
			return nil
		})
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// ablationFaultRate measures end-to-end throughput under injected
// transient media errors on the jukebox. The same bulk workload —
// migrate a set of files to tertiary, eject the cache, and demand-fetch
// everything back — runs under seeded fault plans at 0%, 1% and 5%
// per-op transient error rates. Recovery (bounded retries with
// virtual-time backoff) must absorb every fault: throughput degrades
// smoothly with the error rate and no retry budget is ever exhausted.
func ablationFaultRate() (*Report, error) {
	rep := newReport("Ablation: throughput under transient media-error rate")
	rep.addf("%-8s %12s %10s %11s %12s", "rate", "throughput", "retries", "exhausted", "elapsed")
	for _, pct := range []float64{0, 1, 5} {
		rig := newStudyRig(smallSegGeom)
		if pct > 0 {
			plan := fault.NewPlan(fault.Config{
				Seed:               97,
				TransientReadRate:  pct / 100,
				TransientWriteRate: pct / 100,
				MaxBurst:           2,
			})
			plan.InstallJukebox(rig.jukes[0].Profile().Name, rig.jukes[0])
		}
		err := rig.run(nil, func(p *sim.Proc, hl *core.HighLight) error {
			const nfiles = 12
			const fblocks = 127
			start := p.Now()
			inums, err := writeFiles(p, hl.FS, "/bulk%02d", nfiles, fblocks)
			if err != nil {
				return err
			}
			moved, err := migrateAll(p, hl, inums)
			if err != nil {
				return err
			}
			// Two eject + full-readback rounds: demand fetches under read
			// faults dominate the op count.
			for round := 0; round < 2; round++ {
				if _, err := hl.Svc.EjectAll(); err != nil {
					return err
				}
				n, err := readBack(p, hl.FS, inums, fblocks, smallSegGeom.segBlocks)
				if err != nil {
					return err
				}
				moved += n
			}
			elapsed := (p.Now() - start).Seconds()
			st := hl.Svc.Stats()
			mbps := float64(moved) / (1 << 20) / elapsed
			name := fmt.Sprintf("%g%%", pct)
			rep.addf("%-8s %7.2f MB/s %10d %11d %10.1f s", name, mbps, st.TransientRetries, st.RetriesExhausted, elapsed)
			rep.metric(name+"/MBps", mbps)
			rep.metric(name+"/retries", float64(st.TransientRetries))
			rep.metric(name+"/exhausted", float64(st.RetriesExhausted))
			return nil
		})
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// ablationCrashRecovery measures mount recovery time as a function of
// log length since the last checkpoint: after a checkpoint, N segments'
// worth of synced writes accumulate, the power is cut (durable device
// images only survive), and a fresh kernel remounts. Recovery cost should
// scale with the roll-forward extent, not with file system size — the
// checkpoint bounds the work (§3).
func ablationCrashRecovery() (*Report, error) {
	rep := newReport("Ablation: crash-recovery time vs log length since checkpoint")
	rep.addf("%-10s %10s %10s %10s %12s", "log segs", "psegs", "blocks", "inodes", "recovery")
	for _, segs := range []int{0, 4, 16, 64} {
		ri, elapsed, err := crashAndRecover(segs)
		if err != nil {
			return rep, err
		}
		name := fmt.Sprintf("%d", segs)
		rep.addf("%-10s %10d %10d %10d %9.2f s", name, ri.PsegsReplayed, ri.BlocksReplayed, ri.InodesRecovered, elapsed.Seconds())
		rep.metric(name+"/psegs", float64(ri.PsegsReplayed))
		rep.metric(name+"/recovery-s", elapsed.Seconds())
	}
	return rep, nil
}

// crashAndRecover writes segs log segments past a checkpoint, cuts the
// power, and remounts the surviving media images on a fresh rig; it
// returns what the remount replayed and how long it took.
func crashAndRecover(segs int) (lfs.RecoveryInfo, sim.Time, error) {
	geom := smallSegGeom
	geom.vols, geom.volSegs = 4, 16 // only the disk log is replayed: a small jukebox will do
	// A volatile write cache in front of the disk: only what reached the
	// media survives the cut.
	build := func() *studyRig {
		rig := newStudyRig(geom)
		rig.disks[0].EnableWriteCache(16)
		return rig
	}
	rig := build()
	var disk, juke bytes.Buffer
	var cut sim.Time
	err := rig.run(nil, func(p *sim.Proc, hl *core.HighLight) error {
		// The same base population everywhere: recovery time must not
		// depend on it.
		if _, err := writeFile(p, hl.FS, "/base", 64); err != nil {
			return err
		}
		if err := hl.Checkpoint(p); err != nil {
			return err
		}
		// Roughly one log segment of synced writes per round.
		for i := 0; i < segs; i++ {
			if _, err := writeFile(p, hl.FS, fmt.Sprintf("/post%03d", i), geom.segBlocks-4); err != nil {
				return err
			}
			if err := hl.FS.Sync(p); err != nil {
				return err
			}
		}
		cut = p.Now()
		return errors.Join(rig.disks[0].SaveStore(&disk), rig.jukes[0].SaveStore(&juke))
	})
	if err != nil {
		return lfs.RecoveryInfo{}, 0, err
	}
	after := build()
	after.k.AdvanceTo(cut)
	if err := errors.Join(after.disks[0].LoadStore(&disk), after.jukes[0].LoadStore(&juke)); err != nil {
		return lfs.RecoveryInfo{}, 0, err
	}
	var ri lfs.RecoveryInfo
	var elapsed sim.Time
	err = run(after.k, func(p *sim.Proc) error {
		t0 := p.Now()
		hl, err := after.mount(p, false, nil)
		if err != nil {
			return err
		}
		elapsed = p.Now() - t0
		ri = hl.FS.Recovery()
		return nil
	})
	return ri, elapsed, err
}

// ablationReplication measures what the replicated tertiary tier costs
// and buys across libraries × replicas configurations (1×1 baseline,
// 2×2, 3×2): demand-fetch latency with every library healthy, fetch
// latency degraded onto surviving replicas after library 0 permanently
// fails, and the bytes a repair pass copies to restore the replication
// target on the remaining libraries.
func ablationReplication() (*Report, error) {
	rep := newReport("Ablation: replicated tertiary tier (libraries × replicas)")
	rep.addf("%-8s %13s %14s %12s %11s", "config", "fetch avg", "degraded avg", "repaired", "redirects")
	for _, c := range []struct{ libs, replicas int }{{1, 1}, {2, 2}, {3, 2}} {
		geom := smallSegGeom
		geom.libs, geom.vols, geom.volSegs = c.libs, 4, 40
		setReplicas := func(cfg *core.Config) { cfg.Replicas = c.replicas }
		err := newStudyRig(geom).run(setReplicas, func(p *sim.Proc, hl *core.HighLight) error {
			const nfiles = 10
			const fblocks = 96
			inums, err := writeFiles(p, hl.FS, "/rep%02d", nfiles, fblocks)
			if err != nil {
				return err
			}
			if _, err := migrateAll(p, hl, inums); err != nil {
				return err
			}
			// One full demand-fetch readback; returns ms per tertiary fetch.
			readAll := func() (float64, error) {
				if _, err := hl.Svc.EjectAll(); err != nil {
					return 0, err
				}
				f0 := hl.Svc.Stats().Fetches
				start := p.Now()
				if _, err := readBack(p, hl.FS, inums, fblocks, geom.segBlocks); err != nil {
					return 0, err
				}
				n := hl.Svc.Stats().Fetches - f0
				if n == 0 {
					return 0, nil
				}
				return (p.Now() - start).Seconds() * 1000 / float64(n), nil
			}
			healthyMS, err := readAll()
			if err != nil {
				return err
			}
			var degradedMS float64
			var repairedBytes, redirects int64
			deg := "—"
			if c.libs > 1 {
				hl.Libraries()[0].SetDown(true)
				if degradedMS, err = readAll(); err != nil {
					return err
				}
				if _, err := hl.RepairPass(p); err != nil {
					return err
				}
				repairedBytes = hl.Obs.Counter("repair.bytes_repaired").Value()
				redirects = hl.Svc.Stats().ReplicaRedirects
				deg = fmt.Sprintf("%.1f ms", degradedMS)
			}
			name := fmt.Sprintf("%dx%d", c.libs, c.replicas)
			rep.addf("%-8s %10.1f ms %14s %9.1f MB %11d", name, healthyMS, deg, float64(repairedBytes)/(1<<20), redirects)
			rep.metric(name+"/fetch-ms", healthyMS)
			rep.metric(name+"/degraded-ms", degradedMS)
			rep.metric(name+"/repaired-bytes", float64(repairedBytes))
			rep.metric(name+"/redirects", float64(redirects))
			return nil
		})
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// AblationBlockRange compares whole-file migration against block-range
// (sub-file) migration (§5.2) on the database workload: a large relation
// whose newest 10% stays hot. Quality metric: hot-query latency after
// migration.
func AblationBlockRange() (*Report, error) {
	rep := newReport("Ablation: whole-file vs block-range migration (§5.2)")
	rep.addf("%-14s %14s %12s %14s", "granularity", "hot query avg", "fetches", "bytes staged")
	for _, c := range []struct {
		name  string
		whole bool
	}{{"whole-file", true}, {"block-range", false}} {
		err := newStudyRig(policyGeom).run(nil, func(p *sim.Proc, hl *core.HighLight) error {
			tracker := migrate.NewRangeTracker(hl.K)
			hl.FS.OnAccess = tracker.Hook
			rel, err := hl.FS.Create(p, "/relation")
			if err != nil {
				return err
			}
			const pages = 2048
			page := make([]byte, lfs.BlockSize)
			for i := 0; i < pages; i++ {
				if _, err := rel.WriteAt(p, page, int64(i)*lfs.BlockSize); err != nil {
					return err
				}
			}
			if err := hl.FS.Sync(p); err != nil {
				return err
			}
			p.Sleep(time.Hour)
			hot := pages * 9 / 10
			rng := sim.NewRNG(5)
			// query reads n random pages of the hot tail.
			query := func(n int) error {
				for q := 0; q < n; q++ {
					pg := hot + rng.Intn(pages-hot)
					if _, err := rel.ReadAt(p, page, int64(pg)*lfs.BlockSize); err != nil && err != io.EOF {
						return err
					}
				}
				return nil
			}
			if err := query(300); err != nil {
				return err
			}
			var staged int64
			if c.whole {
				staged, err = hl.MigrateFiles(p, []uint32{rel.Inum()}, false)
			} else {
				var cold []lfs.BlockRef
				cold, err = tracker.ColdRefs(p, hl, rel.Inum(), 30*time.Minute)
				if err == nil {
					staged, err = hl.MigrateRefs(p, cold)
				}
			}
			if err != nil {
				return err
			}
			if err := hl.CompleteMigration(p); err != nil {
				return err
			}
			if err := hl.FS.FlushCaches(p); err != nil {
				return err
			}
			if _, err := hl.Svc.EjectAll(); err != nil {
				return err
			}
			start := p.Now()
			const queries = 100
			if err := query(queries); err != nil {
				return err
			}
			avgMS := (p.Now() - start).Seconds() / queries * 1000
			fetches := hl.Svc.Stats().Fetches
			rep.addf("%-14s %11.1f ms %12d %11.1f MB", c.name, avgMS, fetches, float64(staged)/(1<<20))
			rep.metric(c.name+"/hotquery-ms", avgMS)
			rep.metric(c.name+"/fetches", float64(fetches))
			return nil
		})
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// diskScalingResult is one cell of the ablationDiskScaling matrix.
type diskScalingResult struct {
	stageS   float64 // staging phase (disk-bound): gather + staging writes
	drainS   float64 // copy-out drain (jukebox-bound)
	stagedMB float64
}

// runDiskScaling migrates a fixed multi-file workload on an nd-spindle
// striped farm with the given number of tertiary I/O streams. Copy-outs
// are delayed so the two pipeline phases are separately timeable: the
// staging phase exercises the farm (chunked gather reads and staging
// writes stripe over all arms), the drain phase exercises the concurrent
// I/O streams against the two-drive jukebox.
func runDiskScaling(nd, streams int, parity bool) (diskScalingResult, error) {
	const (
		segBlocks  = 128           // 512 KB segments: region-switch seeks amortize
		nfiles     = 12            // 12 MB staged: the two initial media loads amortize
		fileBlocks = 2 * segBlocks // 1 MB per file
	)
	// Private channels: a shared SCSI bus would cap the farm at about two
	// spindles' worth of bandwidth.
	rig := newStudyRig(studyGeom{
		segBlocks: segBlocks, disks: nd, diskSegs: 96,
		libs: 1, vols: 8, volSegs: 24,
		cacheSegs: 32, inodes: 256, bufBytes: 1 << 20,
	})
	// The paper's single-writer policy reserves drive 0 for the active
	// writing volume; a parallel drain needs every drive writable (each
	// keeps one volume of the allocation stripe loaded). Released in all
	// cells so stream count is the only variable.
	rig.jukes[0].WriteDrive = -1
	farm := func(cfg *core.Config) {
		if nd > 1 {
			cfg.StripeUnit = 8 // 32 KB stripe unit
		}
		cfg.Parity = parity
		cfg.Streams = streams
		// Two-volume allocation stripe (every cell, so single-stream
		// baselines pay the same placement): consecutive staged segments
		// land on different cartridges and the changer's two drives each
		// keep one loaded — concurrent streams then write both drives with
		// no volume contention and no swaps.
		cfg.VolStripe = 2
		// Disk-bound on purpose: no CPU copy costs, and gather reads
		// chunked at a full segment so they stripe over every arm.
		cfg.GatherChunkBlocks = segBlocks
	}
	var res diskScalingResult
	err := rig.run(farm, func(p *sim.Proc, hl *core.HighLight) error {
		inums, err := writeFiles(p, hl.FS, "/f%d", nfiles, fileBlocks)
		if err != nil {
			return err
		}
		if err := hl.FS.Sync(p); err != nil {
			return err
		}
		hl.DelayCopyouts = true
		start := p.Now()
		staged, err := hl.MigrateFiles(p, inums, false)
		if err != nil {
			return err
		}
		tStage := p.Now()
		hl.FlushCopyouts(p)
		if err := hl.CompleteMigration(p); err != nil {
			return err
		}
		res = diskScalingResult{
			stageS:   (tStage - start).Seconds(),
			drainS:   (p.Now() - tStage).Seconds(),
			stagedMB: float64(staged) / (1 << 20),
		}
		return nil
	})
	return res, err
}

// ablationDiskScaling produces the 1→8 spindle × 1→4 stream scaling
// curves (ROADMAP item 2): staging throughput against farm size, drain
// throughput against concurrent tertiary I/O streams, and the rotating-
// parity overhead. The shape to expect follows the Dagenais RAID model:
// near-linear staging gains while transfers dominate, flattening as
// per-arm chunks shrink toward the stripe unit; drain gains capped by the
// jukebox's two drives.
func ablationDiskScaling() (*Report, error) {
	rep := newReport("Ablation: disk-farm scaling (32 KB stripe unit, 12 MB migration)")
	rep.addf("%-16s %8s %10s %10s %10s", "config", "disks", "stage KB/s", "drain KB/s", "overall KB/s")
	type cell struct {
		name   string
		nd, st int
		parity bool
	}
	cells := []cell{
		{"d1_s1", 1, 1, false},
		{"d2_s1", 2, 1, false},
		{"d4_s1", 4, 1, false},
		{"d8_s1", 8, 1, false},
		{"d4_s2", 4, 2, false},
		{"d4_s4", 4, 4, false},
		{"d8_s2", 8, 2, false},
		{"d8_s4", 8, 4, false},
		{"d4_s2_parity", 4, 2, true},
		{"d8_s2_parity", 8, 2, true},
	}
	got := map[string]diskScalingResult{}
	for _, c := range cells {
		r, err := runDiskScaling(c.nd, c.st, c.parity)
		if err != nil {
			return rep, fmt.Errorf("disk scaling %s: %w", c.name, err)
		}
		got[c.name] = r
		kbs := func(mb, s float64) float64 {
			if s <= 0 {
				return 0
			}
			return mb * 1024 / s
		}
		stage := kbs(r.stagedMB, r.stageS)
		drain := kbs(r.stagedMB, r.drainS)
		overall := kbs(r.stagedMB, r.stageS+r.drainS)
		rep.addf("%-16s %8d %10.0f %10.0f %10.0f", c.name, c.nd, stage, drain, overall)
		rep.metric(c.name+"/stage_KBs", stage)
		rep.metric(c.name+"/drain_KBs", drain)
		rep.metric(c.name+"/overall_KBs", overall)
	}
	// Headline curve points, in the shape bench-check gates on.
	d4 := got["d1_s1"].stageS / got["d4_s1"].stageS
	d8 := got["d1_s1"].stageS / got["d8_s1"].stageS
	s2 := got["d4_s1"].drainS / got["d4_s2"].drainS
	parity := 100 * (got["d4_s2_parity"].stageS - got["d4_s2"].stageS) / got["d4_s2"].stageS
	rep.metric("speedup_d4_vs_d1/stage", d4)
	rep.metric("speedup_d8_vs_d1/stage", d8)
	rep.metric("speedup_s2_vs_s1_d4/drain", s2)
	rep.metric("parity_overhead_d4/stage_pct", parity)
	rep.addf("")
	rep.addf("stage speedup: 4 disks %.2fx, 8 disks %.2fx over 1; drain speedup 2 streams %.2fx over 1 (4 disks); parity stage overhead %.0f%%",
		d4, d8, s2, parity)
	return rep, nil
}
