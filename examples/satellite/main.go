// Satellite: the Sequoia 2000 scenario that motivated HighLight (§2).
// Earth-science groups load independent satellite data sets; each set is a
// directory of image files. The namespace-locality policy (§5.3) migrates
// whole data sets as units, clustering related files in the same tertiary
// segments — so that when researchers later analyze a dormant set, a
// prefetch policy streams its segments back with one demand fetch per
// cluster instead of one per file.
package main

import (
	"fmt"
	"io"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/migrate"
	"repro/internal/sim"
	"repro/internal/wl"
)

func main() {
	k := sim.NewKernel()
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	disk := dev.NewDisk(k, dev.RZ57, 256*256, bus) // 256 MB disk farm
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 8, 64, 256*lfs.BlockSize, bus)

	k.RunProc(func(p *sim.Proc) {
		hl, err := core.New(p, core.Config{
			SegBlocks: 256,
			Disks:     []dev.BlockDev{disk},
			Jukeboxes: []jukebox.Footprint{juke},
			CacheSegs: 48,
			MaxInodes: 2048,
		}, true)
		if err != nil {
			log.Fatal(err)
		}

		// Load three data sets, a week of virtual time apart: AVHRR
		// (oldest), Landsat, and a fresh GOES feed.
		if err := hl.FS.Mkdir(p, "/sat"); err != nil {
			log.Fatal(err)
		}
		for _, set := range []string{"avhrr", "landsat", "goes"} {
			dir := "/sat/" + set
			if err := hl.FS.Mkdir(p, dir); err != nil {
				log.Fatal(err)
			}
			for i := 0; i < 12; i++ {
				f, err := hl.FS.Create(p, fmt.Sprintf("%s/scene-%02d.img", dir, i))
				if err != nil {
					log.Fatal(err)
				}
				img := make([]byte, 512*1024) // 512 KB per scene
				for j := range img {
					img[j] = byte(j ^ i)
				}
				if _, err := f.WriteAt(p, img, 0); err != nil {
					log.Fatal(err)
				}
			}
			if err := hl.FS.Sync(p); err != nil {
				log.Fatal(err)
			}
			p.Sleep(7 * 24 * time.Hour) // a week passes between loads
		}

		// Disk pressure: the migrator runs with the namespace policy and
		// a 10 MB target. The oldest unit (/sat/avhrr) migrates wholesale.
		m := migrate.NewMigrator(hl)
		m.Policy = migrate.NewNamespace()
		staged, err := m.RunOnce(p, 10<<20)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("namespace migration staged %.1f MB\n", float64(staged)/(1<<20))
		for _, set := range []string{"avhrr", "landsat", "goes"} {
			fi, _ := hl.FS.Stat(p, "/sat/"+set+"/scene-00.img")
			refs, _ := hl.FS.FileBlockRefs(p, fi.Inum)
			where := "disk"
			for _, r := range refs {
				if hl.Amap.IsTertiarySeg(hl.Amap.SegOf(r.Addr)) {
					where = "tertiary"
					break
				}
			}
			fmt.Printf("  /sat/%-8s -> %s\n", set, where)
		}

		// Months later: a researcher re-analyzes the archived AVHRR set.
		// Eject the cache first so every byte must come off the jukebox.
		if err := hl.FS.FlushCaches(p); err != nil {
			log.Fatal(err)
		}
		if _, err := hl.Svc.EjectAll(); err != nil {
			log.Fatal(err)
		}

		analyze := func(label string) sim.Time {
			start := p.Now()
			var total int64
			for i := 0; i < 12; i++ {
				f, err := hl.FS.Open(p, fmt.Sprintf("/sat/avhrr/scene-%02d.img", i))
				if err != nil {
					log.Fatal(err)
				}
				fi, _ := f.Stat(p)
				_, _, err = wl.SequentialScan(p, f, int64(fi.Size))
				if err != nil && err != io.EOF {
					log.Fatal(err)
				}
				total += int64(fi.Size)
			}
			elapsed := p.Now() - start
			fmt.Printf("%s: read %.1f MB in %.1f virtual s (%d jukebox fetches so far)\n",
				label, float64(total)/(1<<20), elapsed.Seconds(), hl.Svc.Stats().Fetches)
			return elapsed
		}

		// Pass 1: no prefetch — each cache miss stalls on the jukebox.
		cold := analyze("cold analysis, no prefetch      ")

		// Eject again and retry with a sequential prefetch policy: the
		// namespace clustering put the whole unit in consecutive
		// tertiary segments, so "load the missed segment and prefetch
		// remaining segments of the unit" (§5.3) works by construction.
		if err := hl.FS.FlushCaches(p); err != nil {
			log.Fatal(err)
		}
		if _, err := hl.Svc.EjectAll(); err != nil {
			log.Fatal(err)
		}
		hl.Svc.Prefetch = func(tag int) []int {
			var next []int
			for t := tag + 1; t <= tag+3 && t < hl.FS.TsegCount(); t++ {
				if hl.FS.TsegUsage(t).Flags&lfs.SegDirty != 0 {
					next = append(next, t)
				}
			}
			return next
		}
		warm := analyze("cold analysis, unit prefetch    ")

		fmt.Printf("prefetch driven by namespace clustering cut analysis latency by %.0f%%\n",
			100*(1-warm.Seconds()/cold.Seconds()))
	})
	k.Stop()
}
