// Dbworkload: the POSTGRES-style scenario of §5.2 and §8.1 — "database
// files tend to be large, may be accessed randomly and incompletely", so
// whole-file migration is wrong: dormant tuples should migrate while active
// pages of the same relation stay on disk. This example tracks access
// ranges with the in-kernel hook, migrates only the cold ranges of a large
// relation, and shows hot-page queries still running at disk speed while
// the cold region lives on the jukebox.
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
)

const pageSize = lfs.BlockSize

func main() {
	k := sim.NewKernel()
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	disk := dev.NewDisk(k, dev.RZ57, 128*256, bus)
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 64, 256*lfs.BlockSize, bus)

	k.RunProc(func(p *sim.Proc) {
		hl, err := core.New(p, core.Config{
			SegBlocks: 256,
			Disks:     []dev.BlockDev{disk},
			Jukeboxes: []jukebox.Footprint{juke},
			CacheSegs: 16,
			MaxInodes: 256,
		}, true)
		if err != nil {
			log.Fatal(err)
		}

		// Wire the sequential block-range recording into the kernel
		// (§5.2: "mechanism-supplied and updated records of file access
		// sequentiality").
		tracker := migrate.NewRangeTracker(k)
		hl.FS.OnAccess = tracker.Hook

		// A 16 MB relation: 4096 pages, loaded append-only.
		const pages = 4096
		rel, err := hl.FS.Create(p, "/pg/relation.d")
		if err != nil {
			if err2 := hl.FS.Mkdir(p, "/pg"); err2 != nil {
				log.Fatal(err2)
			}
			rel, err = hl.FS.Create(p, "/pg/relation.d")
			if err != nil {
				log.Fatal(err)
			}
		}
		page := make([]byte, pageSize)
		for i := 0; i < pages; i++ {
			for j := range page {
				page[j] = byte(i + j)
			}
			if _, err := rel.WriteAt(p, page, int64(i)*pageSize); err != nil {
				log.Fatal(err)
			}
		}
		if err := hl.FS.Sync(p); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %d-page relation (%d MB)\n", pages, pages*pageSize>>20)

		// Query phase: the application's queries touch only the newest
		// 10%% of the relation (recent tuples), repeatedly, for an hour.
		p.Sleep(time.Hour)
		hot := pages * 9 / 10
		rng := sim.NewRNG(7)
		for q := 0; q < 400; q++ {
			pg := hot + rng.Intn(pages-hot)
			if _, err := rel.ReadAt(p, page, int64(pg)*pageSize); err != nil && err != io.EOF {
				log.Fatal(err)
			}
		}
		fmt.Printf("ran 400 queries against the newest %d pages\n", pages-hot)
		fmt.Printf("tracker holds %d access-range records for the relation\n", len(tracker.Ranges(rel.Inum())))

		// Block-based migration: only ranges idle for 30+ minutes leave
		// the disk. The hot tail stays.
		br := &migrate.BlockRange{Tracker: tracker, MinAge: 30 * time.Minute}
		cold, err := br.ColdRefs(p, hl, rel.Inum())
		if err != nil {
			log.Fatal(err)
		}
		staged, err := hl.MigrateRefs(p, cold)
		if err != nil {
			log.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			log.Fatal(err)
		}
		refs, _ := hl.FS.FileBlockRefs(p, rel.Inum())
		onDisk, onTape := 0, 0
		for _, r := range refs {
			if r.Lbn < 0 {
				continue
			}
			if hl.Amap.IsTertiarySeg(hl.Amap.SegOf(r.Addr)) {
				onTape++
			} else {
				onDisk++
			}
		}
		fmt.Printf("migrated %.1f MB of dormant tuples; relation now %d pages on disk, %d on tertiary\n",
			float64(staged)/(1<<20), onDisk, onTape)

		// Hot queries still run at disk speed; a historical scan of the
		// cold region pays tertiary latency once per segment.
		if err := hl.FS.FlushCaches(p); err != nil {
			log.Fatal(err)
		}
		if _, err := hl.Svc.EjectAll(); err != nil {
			log.Fatal(err)
		}
		t0 := p.Now()
		for q := 0; q < 100; q++ {
			pg := hot + rng.Intn(pages-hot)
			if _, err := rel.ReadAt(p, page, int64(pg)*pageSize); err != nil && err != io.EOF {
				log.Fatal(err)
			}
		}
		hotTime := p.Now() - t0
		fmt.Printf("100 hot-page queries after migration: %.2f virtual s (%.1f ms/query, %d tertiary fetches)\n",
			hotTime.Seconds(), hotTime.Seconds()*10, hl.Svc.Stats().Fetches)

		t0 = p.Now()
		for q := 0; q < 100; q++ {
			pg := rng.Intn(hot)
			if _, err := rel.ReadAt(p, page, int64(pg)*pageSize); err != nil && err != io.EOF {
				log.Fatal(err)
			}
		}
		coldTime := p.Now() - t0
		fmt.Printf("100 historical queries (cold region): %.2f virtual s (%d tertiary fetches)\n",
			coldTime.Seconds(), hl.Svc.Stats().Fetches)
		fmt.Printf("block-range migration kept the hot working set %0.fx faster than whole-file migration would have\n",
			coldTime.Seconds()/hotTime.Seconds())
	})
	k.Stop()
}
