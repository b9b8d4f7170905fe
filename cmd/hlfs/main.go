// Command hlfs creates and manipulates HighLight file system images: a
// simulated disk farm plus MO jukebox persisted as an image directory.
// Applications see "a normal filesystem, accessible through the usual
// operating system calls" (§4); hlfs plays the application.
//
// Usage:
//
//	hlfs -img DIR init [-disk-segs N] [-cache-segs N] [-vols N] [-segs-per-vol N] [-libraries N] [-replicas N]
//	                   [-spindles N [-stripe U [-parity]]] [-streams K]
//	hlfs -img DIR put LOCALFILE /path
//	hlfs -img DIR get /path LOCALFILE
//	hlfs -img DIR ls [/path]
//	hlfs -img DIR mkdir /path
//	hlfs -img DIR rm /path
//	hlfs -img DIR mv /old /new
//	hlfs -img DIR truncate /path SIZE   (set the file's size in bytes)
//	hlfs -img DIR stat /path
//	hlfs -img DIR migrate [-policy stp|atime|namespace] [-min-age SECONDS] [-target-mb N] [-inodes]
//	hlfs -img DIR eject            (drop every clean cache line)
//	hlfs -img DIR volumes          (tertiary volume usage)
//	hlfs -img DIR cleanvolume [DEV VOL]   (tertiary media cleaner, §10)
//	hlfs -img DIR repair           (re-replicate under-replicated segments)
//	hlfs -img DIR replicas         (per-library health + replica map)
//	hlfs -img DIR grow [SEGS]      (add a disk of SEGS segments to the farm)
//	hlfs -img DIR df               (disk, tertiary and inode usage)
//	hlfs -img DIR info
//	hlfs -img DIR fsck
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/dump"
	"repro/internal/fsck"
	"repro/internal/imagefs"
	"repro/internal/lfs"
	"repro/internal/migrate"
	"repro/internal/sim"
)

func main() {
	img := flag.String("img", "", "image directory (required)")
	flag.Parse()
	args := flag.Args()
	if *img == "" || len(args) == 0 {
		usage()
	}
	cmd, rest := args[0], args[1:]

	k := sim.NewKernel()
	var inst *imagefs.Instance
	var err error
	if cmd == "init" {
		cfg := imagefs.DefaultConfig()
		fs := flag.NewFlagSet("init", flag.ExitOnError)
		fs.IntVar(&cfg.DiskSegs, "disk-segs", cfg.DiskSegs, "disk size in 1 MB segments")
		fs.IntVar(&cfg.CacheSegs, "cache-segs", cfg.CacheSegs, "tertiary cache limit in segments")
		fs.IntVar(&cfg.Vols, "vols", cfg.Vols, "jukebox volumes")
		fs.IntVar(&cfg.SegsPerVol, "segs-per-vol", cfg.SegsPerVol, "segments per volume")
		fs.IntVar(&cfg.Libraries, "libraries", cfg.Libraries, "number of identical MO changers (failure domains)")
		fs.IntVar(&cfg.Replicas, "replicas", cfg.Replicas, "tertiary copies per staged segment; <2 disables replication")
		fs.IntVar(&cfg.Spindles, "spindles", cfg.Spindles, "farm spindles the disk capacity is split over; <2 keeps one disk")
		fs.IntVar(&cfg.StripeUnit, "stripe", cfg.StripeUnit, "stripe unit in 4 KB blocks; 0 concatenates the farm")
		fs.BoolVar(&cfg.Parity, "parity", cfg.Parity, "rotating parity unit per stripe row (needs -stripe and >=3 spindles)")
		fs.IntVar(&cfg.Streams, "streams", cfg.Streams, "concurrent tertiary I/O streams per library; <2 keeps the single stream")
		must(fs.Parse(rest))
		if err := cliutil.ValidateFarm(cfg.Spindles, cfg.StripeUnit, cfg.Parity); err != nil {
			usageErr(err)
		}
		if err := cliutil.ValidateTertiary(cfg.Libraries, cfg.Replicas); err != nil {
			usageErr(err)
		}
		inst, err = imagefs.Init(k, *img, cfg)
		check(err)
		nlibs := cfg.Libraries
		if nlibs < 1 {
			nlibs = 1
		}
		fmt.Printf("initialized HighLight image in %s: %d MB disk, %d x %d-volume jukebox (%d MB each), cache %d MB\n",
			*img, cfg.DiskSegs*cfg.SegBlocks*lfs.BlockSize/(1<<20), nlibs, cfg.Vols,
			cfg.SegsPerVol*cfg.SegBlocks*lfs.BlockSize/(1<<20), cfg.CacheSegs*cfg.SegBlocks*lfs.BlockSize/(1<<20))
		k.Stop()
		return
	}

	inst, err = imagefs.Load(k, *img)
	check(err)
	hl := inst.HL
	dirty := true // most commands mutate; harmless to checkpoint+save anyway

	k.RunProc(func(p *sim.Proc) {
		t0 := p.Now()
		elapsed := func() float64 { return (p.Now() - t0).Seconds() }
		switch cmd {
		case "put":
			need(rest, 2)
			data, err := os.ReadFile(rest[0])
			check(err)
			f, err := hl.FS.Create(p, rest[1])
			check(err)
			_, err = f.WriteAt(p, data, 0)
			check(err)
			fmt.Printf("wrote %d bytes to %s (%.2f virtual seconds)\n", len(data), rest[1], elapsed())
		case "truncate":
			need(rest, 2)
			var size uint64
			_, err := fmt.Sscanf(rest[1], "%d", &size)
			check(err)
			f, err := hl.FS.Open(p, rest[0])
			check(err)
			check(f.Truncate(p, size))
			fmt.Printf("truncated %s to %d bytes (%.2f virtual seconds)\n", rest[0], size, elapsed())
		case "get":
			need(rest, 2)
			f, err := hl.FS.Open(p, rest[0])
			check(err)
			sz, err := f.Size(p)
			check(err)
			buf := make([]byte, sz)
			if _, err := f.ReadAt(p, buf, 0); err != nil && err != io.EOF {
				check(err)
			}
			check(os.WriteFile(rest[1], buf, 0o644))
			fmt.Printf("read %d bytes from %s (%.2f virtual seconds; tertiary fetches: %d)\n",
				sz, rest[0], elapsed(), hl.Svc.Stats().Fetches)
		case "ls":
			path := "/"
			if len(rest) > 0 {
				path = rest[0]
			}
			ents, err := hl.FS.ReadDir(p, path)
			check(err)
			for _, e := range ents {
				fi, err := hl.FS.Stat(p, path+"/"+e.Name)
				check(err)
				kind := "file"
				if e.Type == lfs.TypeDir {
					kind = "dir "
				}
				fmt.Printf("%s %10d  %s  %s\n", kind, fi.Size, residency(p, hl, e.Inum, e.Type), e.Name)
			}
			dirty = false
		case "mkdir":
			need(rest, 1)
			check(hl.FS.Mkdir(p, rest[0]))
		case "rm":
			need(rest, 1)
			check(hl.FS.Remove(p, rest[0]))
		case "mv":
			need(rest, 2)
			check(hl.FS.Rename(p, rest[0], rest[1]))
		case "stat":
			need(rest, 1)
			fi, err := hl.FS.Stat(p, rest[0])
			check(err)
			fmt.Printf("inum %d  type %v  size %d  mtime %.2fs  atime %.2fs  residency %s\n",
				fi.Inum, fi.Type, fi.Size, time.Duration(fi.Mtime).Seconds(), time.Duration(fi.Atime).Seconds(),
				residency(p, hl, fi.Inum, fi.Type))
			dirty = false
		case "migrate":
			fs := flag.NewFlagSet("migrate", flag.ExitOnError)
			policy := fs.String("policy", "stp", "stp | atime | namespace")
			minAge := fs.Int("min-age", 0, "exclude files accessed within SECONDS (virtual)")
			targetMB := fs.Int("target-mb", 0, "stop after staging this much (0 = everything eligible)")
			inodes := fs.Bool("inodes", false, "also migrate inodes")
			must(fs.Parse(rest))
			m := migrate.NewMigrator(hl)
			m.MigrateInodes = *inodes
			age := sim.Time(*minAge) * time.Second
			switch *policy {
			case "stp":
				m.Policy = &migrate.STP{TimeExp: 1, SizeExp: 1, MinAge: age}
			case "atime":
				m.Policy = &migrate.AccessTime{MinAge: age}
			case "namespace":
				ns := migrate.NewNamespace()
				ns.MinAge = age
				m.Policy = ns
			default:
				check(fmt.Errorf("unknown policy %q", *policy))
			}
			staged, err := m.RunOnce(p, int64(*targetMB)<<20)
			check(err)
			st := hl.Svc.Stats()
			fmt.Printf("migrated %.2f MB (%d tertiary copyouts, %.2f virtual seconds)\n",
				float64(staged)/(1<<20), st.Copyouts, elapsed())
		case "eject":
			n, err := hl.Svc.EjectAll()
			check(err)
			fmt.Printf("ejected %d cache lines\n", n)
		case "volumes":
			for _, u := range hl.VolumeUsages() {
				fmt.Printf("device %d volume %2d: %2d used segs, %8d live bytes, %2d no-store\n",
					u.Device, u.Volume, u.UsedSegs, u.LiveBytes, u.NoStoreSegs)
			}
			dirty = false
		case "cleanvolume":
			var u core.VolumeUsage
			var ok bool
			if len(rest) >= 2 {
				fmt.Sscanf(rest[0]+" "+rest[1], "%d %d", &u.Device, &u.Volume)
				ok = true
			} else {
				u, ok = hl.SelectCleanableVolume()
			}
			if !ok {
				fmt.Println("no cleanable volume")
				dirty = false
				break
			}
			moved, err := hl.CleanVolume(p, u.Device, u.Volume)
			check(err)
			fmt.Printf("cleaned device %d volume %d: relocated %d blocks, medium erased and reusable\n",
				u.Device, u.Volume, moved)
		case "repair":
			repaired, err := hl.RepairPass(p)
			check(err)
			left := len(hl.ReplicationDeficits())
			fmt.Printf("repaired %d segment replicas; %d still under-replicated\n", repaired, left)
		case "replicas":
			dump.Replicas(os.Stdout, hl)
			dirty = false
		case "grow":
			segs := 64
			if len(rest) >= 1 {
				fmt.Sscanf(rest[0], "%d", &segs)
			}
			check(inst.AddDisk(p, segs))
			fmt.Printf("added a %d MB disk to the farm; %d clean segments now available\n",
				segs*hl.Amap.SegBlocks()*lfs.BlockSize/(1<<20), hl.FS.CleanSegs())
		case "df":
			u := hl.FS.Usage()
			segKB := hl.Amap.SegBlocks() * 4
			fmt.Printf("disk:     %4d segments (%d KB each): %d clean, %d log, %d cache, %d reserved, %d retired\n",
				u.DiskSegs, segKB, u.CleanSegs, u.DirtySegs, u.CacheSegs, u.ReservedSegs, u.NoStoreSegs)
			fmt.Printf("          %8.1f MB live in the log\n", float64(u.LiveBytes)/(1<<20))
			fmt.Printf("tertiary: %4d segments used, %8.1f MB live\n", u.TertSegsUsed, float64(u.TertLive)/(1<<20))
			fmt.Printf("inodes:   %d / %d\n", u.InodesUsed, u.InodesMax)
			dirty = false
		case "info":
			info(p, hl)
			dirty = false
		case "fsck":
			rep, err := fsck.Check(p, hl)
			check(err)
			rep.Write(os.Stdout)
			if !rep.OK() {
				os.Exit(1)
			}
			dirty = false
		default:
			usage()
		}
		if dirty {
			check(hl.FS.Checkpoint(p))
		}
	})
	check(inst.Save())
	k.Stop()
}

// residency summarizes where a file's blocks live.
func residency(p *sim.Proc, hl *core.HighLight, inum uint32, typ lfs.FileType) string {
	refs, err := hl.FS.FileBlockRefs(p, inum)
	if err != nil || len(refs) == 0 {
		return "empty   "
	}
	tert := 0
	for _, r := range refs {
		if hl.Amap.IsTertiarySeg(hl.Amap.SegOf(r.Addr)) {
			tert++
		}
	}
	switch {
	case tert == 0:
		return "disk    "
	case tert == len(refs):
		return "tertiary"
	default:
		return "mixed   "
	}
}

func info(p *sim.Proc, hl *core.HighLight) {
	sb := hl.FS.Superblock()
	fmt.Printf("segments: %d blocks (%d KB); disk %d segs (%d reserved); cache limit %d segs (%d in use)\n",
		sb.SegBlocks, sb.SegBlocks*4, sb.DiskSegs, sb.ReservedSegs, sb.CacheSegs, hl.FS.CacheSegsInUse())
	fmt.Printf("clean disk segments: %d\n", hl.FS.CleanSegs())
	st := hl.Svc.Stats()
	fmt.Printf("tertiary: %d segments, %d fetched, %d copied out\n", hl.FS.TsegCount(), st.Fetches, st.Copyouts)
	fmt.Println(dump.SegmentCache(hl))
	fs := hl.FS.Stats()
	fmt.Printf("fs: %d partial segments written, %d checkpoints, %d segments cleaned\n",
		fs.PartialSegs, fs.Checkpoints, fs.SegsCleaned)
	fmt.Printf("buffer cache: %d hits, %d misses, %d reserve hits, %d pointer waits\n",
		fs.CacheHits, fs.CacheMisses, fs.ReserveHits, fs.PointerWaits)
}

func usageErr(err error) {
	fmt.Fprintf(os.Stderr, "hlfs: %v\n", err)
	os.Exit(2)
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
	}
}

func must(err error) {
	if err != nil {
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hlfs: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hlfs -img DIR COMMAND ...
commands: init, put, truncate, get, ls, mkdir, rm, mv, stat, migrate, eject, volumes, cleanvolume, repair, replicas, grow, df, info, fsck
run "hlfs -img DIR init" first; see the command doc comment for flags`)
	os.Exit(2)
}
