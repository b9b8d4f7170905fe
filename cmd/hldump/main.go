// Command hldump renders the HighLight paper's figures from a live
// demonstration file system:
//
//	-layout     LFS / HighLight on-media layout with segment states and
//	            log contents (Figures 1 and 3)
//	-addrmap    block address allocation across disks and tertiary
//	            volumes (Figure 4)
//	-hierarchy  storage hierarchy data flow: write, migrate, demand
//	            fetch (Figure 2)
//	-datapath   layered demand-fetch request flow (Figure 5)
//	-summary    the partial-segment summary block format (Table 1)
//	-faults     per-device injected-fault counters and recovery report
//	            (the demo instance runs its workload under a small
//	            seeded fault plan so the counters are non-zero)
//	-timeline   virtual-time event timeline and observability summary of
//	            the demo run: migration, staging, volume swaps, Footprint
//	            transfers, and demand fetches as traced spans, plus
//	            per-device utilization, counters, and latency histograms
//	            (-track and -cat narrow it to comma-separated track and
//	            category lists)
//	-request N  the traced waterfall and critical-path breakdown for
//	            request N: the demo submits two demand reads of the
//	            migrated /beta through the admission-controlled front
//	            end — request 1 with the loaded drive offline (a
//	            jukebox-swap fetch) and request 2 against the warm
//	            segment cache — and every stage's duration sums exactly
//	            to the request's end-to-end latency
//	-slowest K  the K slowest traced requests per class with their
//	            dominant critical-path stages
//	-why N      the policy story for tertiary segment N: its heat record
//	            and the audited decision chain (selected / skipped /
//	            staged / copied-out / cleaned) recorded by the migrator,
//	            the staging mechanism, and the tertiary cleaner; the demo
//	            adds a cleaner pass so both migrated and skipped segments
//	            carry verdicts
//
// Without flags all sections are produced. The demo instance is one simulated
// RZ57 disk plus a small MO jukebox; -img DIR instead loads a file system
// image directory created by hlfs.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/dump"
	"repro/internal/fault"
	"repro/internal/imagefs"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/svc"
)

// splitList turns a comma-separated flag value into its non-empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

func main() {
	layout := flag.Bool("layout", false, "figures 1 & 3: on-media layout")
	addrmap := flag.Bool("addrmap", false, "figure 4: block address allocation")
	hierarchy := flag.Bool("hierarchy", false, "figure 2: storage hierarchy data flow")
	datapath := flag.Bool("datapath", false, "figure 5: layered demand-fetch path")
	summary := flag.Bool("summary", false, "table 1: partial-segment summary format")
	volumes := flag.Bool("volumes", false, "tertiary volume usage (tsegfile view)")
	faults := flag.Bool("faults", false, "fault injection & recovery report (per-device counters)")
	recovery := flag.Bool("recovery", false, "mount recovery report: checkpoint anchor, roll-forward extent, cache-directory rebuild (the demo power-cuts an instance mid-migration and remounts it)")
	timeline := flag.Bool("timeline", false, "virtual-time event timeline + observability summary of the demo run")
	track := flag.String("track", "", "comma-separated list of tracks to keep in -timeline (empty = all)")
	cat := flag.String("cat", "", "comma-separated list of categories to keep in -timeline (empty = the default pipeline set)")
	why := flag.Int("why", -1, "print the heat record and audited decision chain for this tertiary segment")
	request := flag.Int("request", -1, "print the traced waterfall and critical-path breakdown for this request ID (the demo traces request 1, a jukebox-swap fetch, and request 2, a cache hit)")
	slowest := flag.Int("slowest", 0, "print the K slowest traced requests per class (0 = off; the full dump shows 5)")
	replicas := flag.Bool("replicas", false, "tertiary replication report: per-library health/capacity, per-segment replica map, under-replicated list (the demo fails a library mid-run and repairs it)")
	img := flag.String("img", "", "load a file system image directory (from hlfs) instead of the demo")
	maxSegs := flag.Int("maxsegs", 64, "cap per-segment detail in -layout (0 = all)")
	flag.Parse()

	all := !*layout && !*addrmap && !*hierarchy && !*datapath && !*summary && !*volumes && !*faults && !*recovery && !*timeline && !*replicas && *why < 0 && *request < 0 && *slowest == 0

	if *summary || all {
		fmt.Println(bench.Table1())
	}

	k := sim.NewKernel()
	var hl *core.HighLight
	var juke *jukebox.Jukebox
	var o *obs.Obs
	var err error
	if *img != "" {
		var inst *imagefs.Instance
		inst, err = imagefs.Load(k, *img)
		if inst != nil {
			hl = inst.HL
		}
	} else {
		o = obs.New(k)
		if *timeline || all {
			o.EnableTrace()
		}
		hl, juke, err = demo(k, *faults || all, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hldump: %v\n", err)
		os.Exit(1)
	}
	if *addrmap || all {
		dump.AddrMap(os.Stdout, hl)
		fmt.Println()
	}
	var fe *svc.FrontEnd
	k.RunProc(func(p *sim.Proc) {
		if (*hierarchy || all) && *img == "" {
			if err := dump.Hierarchy(p, os.Stdout, hl); err != nil {
				fmt.Fprintf(os.Stderr, "hldump: hierarchy: %v\n", err)
			}
			fmt.Println()
		}
		if (*datapath || all) && *img == "" {
			if err := dump.DataPath(p, os.Stdout, hl); err != nil {
				fmt.Fprintf(os.Stderr, "hldump: datapath: %v\n", err)
			}
			fmt.Println()
		}
		if (*request >= 0 || *slowest > 0 || all) && *img == "" {
			// The two traced reads the -request and -slowest views render.
			// Runs after hierarchy/datapath, which replay the figure
			// workloads against the same seeded fault schedule regardless.
			var terr error
			if fe, terr = traceDemo(p, hl, juke); terr != nil {
				fmt.Fprintf(os.Stderr, "hldump: trace demo: %v\n", terr)
			}
		}
		if *layout || all {
			if err := dump.Layout(p, os.Stdout, hl, *maxSegs); err != nil {
				fmt.Fprintf(os.Stderr, "hldump: layout: %v\n", err)
			}
		}
		if *volumes || all {
			fmt.Println("\nTertiary volume usage:")
			for _, u := range hl.VolumeUsages() {
				fmt.Printf("  device %d volume %2d: %2d used segs, %8d live bytes, %2d no-store\n",
					u.Device, u.Volume, u.UsedSegs, u.LiveBytes, u.NoStoreSegs)
			}
		}
		if *faults || all {
			fmt.Println()
			dump.Faults(os.Stdout, hl)
		}
		if (*recovery || all) && *img != "" {
			// A loaded image went through a real mount: report it.
			fmt.Println()
			dump.Recovery(os.Stdout, hl.FS.Recovery(), hl.MountStats(), hl.RetiredSegments())
		}
		if (*replicas || all) && *img != "" {
			fmt.Println()
			dump.Replicas(os.Stdout, hl)
		}
		if *why >= 0 {
			// A tertiary-cleaner pass on the demo instance gives the audit
			// skipped and cleaned verdicts alongside the migration's
			// staged/copied-out ones.
			if *img == "" {
				if u, ok := hl.SelectCleanableVolume(); ok {
					if _, err := hl.CleanVolume(p, u.Device, u.Volume); err != nil {
						fmt.Fprintf(os.Stderr, "hldump: -why cleaner pass: %v\n", err)
					}
				}
			}
			fmt.Println()
			dump.Why(os.Stdout, hl, *why)
		}
	})
	if (*request >= 0 || *slowest > 0) && *img != "" {
		fmt.Fprintln(os.Stderr, "hldump: -request/-slowest need the demo instance (loaded images carry no traces)")
	}
	if fe != nil {
		if *slowest > 0 || all {
			fmt.Println()
			n := *slowest
			if n == 0 {
				n = 5
			}
			dump.Slowest(os.Stdout, fe.Tracer, n)
		}
		ids := []int64{1, 2} // the swap read and the cache-hit read
		if *request >= 0 {
			ids = []int64{int64(*request)}
		}
		if *request >= 0 || all {
			for _, id := range ids {
				fmt.Println()
				if err := dump.Waterfall(os.Stdout, fe.Tracer, id); err != nil {
					fmt.Fprintf(os.Stderr, "hldump: -request: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}
	if (*timeline || all) && *img == "" {
		// The pipeline-level story: mounts, migrations, staging, volume
		// swaps, Footprint transfers, and demand-fetch waits. (Per-block
		// disk spans stay in the Chrome trace; here they would drown the
		// narrative.)
		fmt.Println()
		cats := []string{
			"core.mount", "core.migrate", "core.ckpt", "core.clean",
			"stage.open", "stage.close", "jb.swap",
			"fp.write", "fp.read", "fetch.wait",
		}
		if *cat != "" {
			cats = splitList(*cat)
		}
		o.WriteTimelineFiltered(os.Stdout, splitList(*track), cats)
		fmt.Println()
		o.WriteSummary(os.Stdout)
	}
	k.Stop()
	if (*recovery || all) && *img == "" {
		fmt.Println()
		if err := recoveryDemo(); err != nil {
			fmt.Fprintf(os.Stderr, "hldump: recovery: %v\n", err)
			os.Exit(1)
		}
	}
	if (*replicas || all) && *img == "" {
		fmt.Println()
		if err := replicaDemo(); err != nil {
			fmt.Fprintf(os.Stderr, "hldump: replicas: %v\n", err)
			os.Exit(1)
		}
	}
}

// replicaDemo tells the -replicas story end to end: a two-library
// instance with replication factor 2 migrates a file (each segment's
// replica lands in the other library), permanently loses library 0,
// serves a read through the surviving replicas, and runs a repair pass
// that re-establishes full replication on the healthy library.
func replicaDemo() error {
	k := sim.NewKernel()
	disk := dev.NewDisk(k, dev.RZ57, 256*64, nil)
	jb0 := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 32, 64*lfs.BlockSize, nil)
	jb1 := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 32, 64*lfs.BlockSize, nil)
	var derr error
	k.RunProc(func(p *sim.Proc) {
		hl, err := core.New(p, core.Config{
			SegBlocks: 64,
			Disks:     []dev.BlockDev{disk},
			Jukeboxes: []jukebox.Footprint{jb0, jb1},
			CacheSegs: 24,
			MaxInodes: 256,
			Replicas:  2,
			// Keep the buffer cache smaller than the file so the re-read
			// below actually exercises the tertiary fetch path.
			BufferBytes: 64 * lfs.BlockSize,
		}, true)
		if err != nil {
			derr = err
			return
		}
		f, err := hl.FS.Create(p, "/data")
		if err != nil {
			derr = err
			return
		}
		data := make([]byte, 120*lfs.BlockSize)
		for i := range data {
			data[i] = byte(i)
		}
		if _, err := f.WriteAt(p, data, 0); err != nil {
			derr = err
			return
		}
		if err := hl.FS.Sync(p); err != nil {
			derr = err
			return
		}
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			derr = err
			return
		}
		if err := hl.CompleteMigration(p); err != nil {
			derr = err
			return
		}
		fmt.Println("Two libraries, replication factor 2, one migrated file:")
		dump.Replicas(os.Stdout, hl)

		// Drop the cache so the read below must go to tertiary media, then
		// lose library 0 for good.
		if _, derr = hl.Svc.EjectAll(); derr != nil {
			return
		}
		hl.Libraries()[0].SetDown(true)
		fmt.Printf("\nlibrary 0 permanently failed at t=%.2fs; rereading /data through the survivors...\n", p.Now().Seconds())
		buf := make([]byte, len(data))
		if _, err := f.ReadAt(p, buf, 0); err != nil {
			derr = fmt.Errorf("read after library loss: %w", err)
			return
		}
		for i := range buf {
			if buf[i] != data[i] {
				derr = fmt.Errorf("read after library loss: byte %d corrupt", i)
				return
			}
		}
		fmt.Printf("read OK (%d replica redirects); running a repair pass...\n\n", hl.Svc.Stats().ReplicaRedirects)
		if _, err := hl.RepairPass(p); err != nil {
			derr = err
			return
		}
		dump.Replicas(os.Stdout, hl)
	})
	k.Stop()
	return derr
}

// recoveryDemo tells the -recovery story end to end: populate an
// instance, checkpoint it, keep writing past the checkpoint with sync
// barriers, start a migration whose copy-outs are still pending, leave an
// unsynced tail in the volatile disk write cache — then "cut the power"
// (keep only the durable device images), remount on a fresh kernel, and
// report how the mount recovered.
func recoveryDemo() error {
	mk := func(k *sim.Kernel) (*dev.Disk, *jukebox.Jukebox) {
		disk := dev.NewDisk(k, dev.RZ57, 256*64, nil)
		disk.EnableWriteCache(16)
		juke := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 32, 64*lfs.BlockSize, nil)
		return disk, juke
	}
	cfg := func(disk *dev.Disk, juke *jukebox.Jukebox) core.Config {
		return core.Config{
			SegBlocks: 64,
			Disks:     []dev.BlockDev{disk},
			Jukeboxes: []jukebox.Footprint{juke},
			CacheSegs: 24,
			MaxInodes: 256,
		}
	}
	k := sim.NewKernel()
	disk, juke := mk(k)
	var diskImg, jukeImg bytes.Buffer
	var cut sim.Time
	var wdirty int
	var derr, cutErr error
	k.RunProc(func(p *sim.Proc) {
		hl, err := core.New(p, cfg(disk, juke), true)
		if err != nil {
			derr = err
			return
		}
		write := func(name string, blocks int) {
			if derr != nil {
				return
			}
			f, e := hl.FS.Create(p, name)
			if e != nil {
				derr = e
				return
			}
			data := make([]byte, blocks*lfs.BlockSize)
			for i := range data {
				data[i] = byte(i + blocks)
			}
			if _, e := f.WriteAt(p, data, 0); e != nil {
				derr = e
			}
		}
		write("/base", 80)
		if derr == nil {
			derr = hl.Checkpoint(p)
		}
		// A migration whose copy-outs are still pending at the cut. (Its
		// staging setup takes the last checkpoint of this run.)
		if derr == nil {
			hl.DelayCopyouts = true
			f, e := hl.FS.Open(p, "/base")
			if e != nil {
				derr = e
			} else if _, e := hl.MigrateFiles(p, []uint32{f.Inum()}, false); e != nil {
				derr = e
			}
		}
		// Post-checkpoint synced writes: roll-forward material.
		for i := 0; i < 4 && derr == nil; i++ {
			write(fmt.Sprintf("/post%d", i), 20)
			if derr == nil {
				derr = hl.FS.Sync(p)
			}
		}
		if derr != nil {
			return
		}
		// Final sync, power-cut mid-flush at the fifth block to reach the
		// platter, with the tail of the log in the volatile write cache.
		disk.Cut = &dev.Cut{Target: 5, At: func() {
			cutErr = errors.Join(disk.SaveStore(&diskImg), juke.SaveStore(&jukeImg))
			cut = p.Now()
			wdirty = disk.WriteCacheDirty()
		}}
		write("/unsynced", 24)
		if derr == nil {
			derr = hl.FS.Sync(p)
		}
	})
	k.Stop()
	if err := errors.Join(derr, cutErr); err != nil {
		return err
	}
	if diskImg.Len() == 0 {
		return fmt.Errorf("demo never reached its cut point")
	}
	fmt.Printf("Power cut at t=%.2fs, mid-sync (%d dirty blocks dropped from the volatile write cache); remounting...\n",
		cut.Seconds(), wdirty)
	k2 := sim.NewKernel()
	k2.AdvanceTo(cut)
	disk2, juke2 := mk(k2)
	if err := errors.Join(disk2.LoadStore(&diskImg), juke2.LoadStore(&jukeImg)); err != nil {
		return err
	}
	k2.RunProc(func(p *sim.Proc) {
		hl, err := core.New(p, cfg(disk2, juke2), false)
		if err != nil {
			derr = err
			return
		}
		if err := hl.CompleteMigration(p); err != nil {
			derr = err
			return
		}
		dump.Recovery(os.Stdout, hl.FS.Recovery(), hl.MountStats(), hl.RetiredSegments())
	})
	k2.Stop()
	return derr
}

// traceDemo runs two traced demand reads of the migrated /beta through
// the admission-controlled front end. Request 1 runs with drive 0
// offline, so the fetch must swap the cartridge into drive 1 — its
// waterfall shows queue-wait, cache-lookup miss, fetch-wait, drive-swap,
// media-transfer, and the staging stripe I/O. Request 2 re-reads the now
// segment-cached file: a pure cache-hit trace.
func traceDemo(p *sim.Proc, hl *core.HighLight, juke *jukebox.Jukebox) (*svc.FrontEnd, error) {
	fe := svc.New(hl, svc.Config{Workers: 2, ReservedInteractive: 1, InteractiveQueue: 4, BackgroundQueue: 4})
	f, err := hl.FS.Open(p, "/beta")
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 8*lfs.BlockSize)
	read := func() error {
		return fe.Submit(p, svc.Interactive, p.Now()+sim.Time(60*time.Second), func(wp *sim.Proc) error {
			_, e := f.ReadAt(wp, buf, 0)
			return e
		})
	}
	// Cold read: drop buffers and eject the cached segments so the read
	// goes to tertiary, with the loaded drive offline to force a swap.
	hl.FS.DropFileBuffers(p, f.Inum())
	if _, err := hl.Svc.EjectAll(); err != nil {
		return nil, err
	}
	juke.SetDriveOffline(0, true)
	if err := read(); err != nil {
		return nil, fmt.Errorf("swap read: %w", err)
	}
	juke.SetDriveOffline(0, false)
	// Warm read: the segment now sits in the disk segment cache, so the
	// trace resolves at the cache lookup.
	hl.FS.DropFileBuffers(p, f.Inum())
	if err := read(); err != nil {
		return nil, fmt.Errorf("cache-hit read: %w", err)
	}
	return fe, nil
}

// demo builds a small populated HighLight instance on the given obs
// domain. With faults set, the demo workload runs under a seeded
// transient-fault plan so the recovery report has something to show.
// The jukebox is returned alongside so the trace demo can force a
// cartridge swap (nil for -img loads).
func demo(k *sim.Kernel, faults bool, o *obs.Obs) (*core.HighLight, *jukebox.Jukebox, error) {
	disk := dev.NewDisk(k, dev.RZ57, 256*64, nil)
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 32, 64*lfs.BlockSize, nil)
	disk.SetObs(o, "")
	juke.SetObs(o, "")
	if faults {
		plan := fault.NewPlan(fault.Config{Seed: 1, TransientReadRate: 0.5, TransientWriteRate: 0.5, MaxBurst: 2})
		plan.InstallJukebox("MO6300", juke)
	}
	var hl *core.HighLight
	var err error
	k.RunProc(func(p *sim.Proc) {
		hl, err = core.New(p, core.Config{
			SegBlocks: 64,
			Disks:     []dev.BlockDev{disk},
			Jukeboxes: []jukebox.Footprint{juke},
			CacheSegs: 24,
			MaxInodes: 256,
			Obs:       o,
		}, true)
		if err != nil {
			return
		}
		// Populate: a couple of files, one migrated.
		for i, name := range []string{"/alpha", "/beta"} {
			f, e := hl.FS.Create(p, name)
			if e != nil {
				err = e
				return
			}
			data := make([]byte, (i+1)*40*lfs.BlockSize)
			for j := range data {
				data[j] = byte(j * (i + 1))
			}
			if _, e := f.WriteAt(p, data, 0); e != nil {
				err = e
				return
			}
		}
		if err = hl.FS.Sync(p); err != nil {
			return
		}
		f, _ := hl.FS.Open(p, "/beta")
		if _, err = hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			return
		}
		err = hl.CompleteMigration(p)
	})
	return hl, juke, err
}
