// Quickstart: build a HighLight file system on simulated hardware, write
// files, migrate them to the tape/MO jukebox, and read them back through
// the demand-fetch path — the whole storage hierarchy in ~100 lines.
package main

import (
	"fmt"
	"io"
	"log"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

func main() {
	// Everything runs in a deterministic simulation kernel: devices
	// charge calibrated service times against a virtual clock.
	k := sim.NewKernel()

	// Hardware: one RZ57-class disk (64 MB here) and an HP 6300-class
	// magneto-optic jukebox (2 drives, 4 platters x 32 MB), sharing a
	// SCSI bus, as in the paper's testbed.
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	disk := dev.NewDisk(k, dev.RZ57, 64*256, bus)
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 32, 256*lfs.BlockSize, bus)

	k.RunProc(func(p *sim.Proc) {
		// Format a HighLight file system across both levels.
		hl, err := core.New(p, core.Config{
			SegBlocks: 256, // 1 MB segments
			Disks:     []dev.BlockDev{disk},
			Jukeboxes: []jukebox.Footprint{juke},
			CacheSegs: 16, // 16 MB of disk may cache tertiary segments
			MaxInodes: 1024,
		}, true)
		if err != nil {
			log.Fatal(err)
		}

		// Applications just use normal file operations.
		if err := hl.FS.Mkdir(p, "/results"); err != nil {
			log.Fatal(err)
		}
		f, err := hl.FS.Create(p, "/results/run-0042.dat")
		if err != nil {
			log.Fatal(err)
		}
		data := make([]byte, 5<<20)
		for i := range data {
			data[i] = byte(i % 251)
		}
		t0 := p.Now()
		if _, err := f.WriteAt(p, data, 0); err != nil {
			log.Fatal(err)
		}
		if err := hl.FS.Sync(p); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote 5 MB to the disk farm in %.2f virtual s\n", (p.Now() - t0).Seconds())

		// Migrate the file to tertiary storage: blocks are gathered
		// into 1 MB staging segments and copied to the jukebox.
		t0 = p.Now()
		staged, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false)
		if err != nil {
			log.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("migrated %.1f MB to the MO jukebox in %.2f virtual s (%d segment copyouts)\n",
			float64(staged)/(1<<20), (p.Now() - t0).Seconds(), hl.Svc.Stats().Copyouts)

		// Reads still work while the segments are cached on disk...
		buf := make([]byte, 8192)
		t0 = p.Now()
		if _, err := f.ReadAt(p, buf, 0); err != nil && err != io.EOF {
			log.Fatal(err)
		}
		fmt.Printf("read from the segment cache in %.3f virtual s\n", (p.Now() - t0).Seconds())

		// ...and after ejecting the cache, the first read transparently
		// demand-fetches the containing segment from the jukebox.
		hl.FS.DropFileBuffers(p, f.Inum())
		if _, err := hl.Svc.EjectAll(); err != nil {
			log.Fatal(err)
		}
		t0 = p.Now()
		if _, err := f.ReadAt(p, buf, 0); err != nil && err != io.EOF {
			log.Fatal(err)
		}
		fmt.Printf("demand fetch from tertiary storage took %.2f virtual s (first access)\n", (p.Now() - t0).Seconds())
		t0 = p.Now()
		if _, err := f.ReadAt(p, buf, int64(len(buf))); err != nil && err != io.EOF {
			log.Fatal(err)
		}
		fmt.Printf("the next read hits the refilled cache: %.3f virtual s\n", (p.Now() - t0).Seconds())

		// Verify end to end.
		got := make([]byte, len(data))
		if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
			log.Fatal(err)
		}
		for i := range got {
			if got[i] != data[i] {
				log.Fatalf("byte %d corrupted", i)
			}
		}
		fmt.Println("verified 5 MB byte-for-byte across the hierarchy")
	})
	k.Stop()
}
