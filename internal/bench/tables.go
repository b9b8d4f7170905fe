package bench

import (
	"fmt"

	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/wl"
)

// Table2 runs the large-object benchmark (§7.1) on the four
// configurations of the paper: FFS with clustering, base 4.4BSD LFS,
// HighLight with non-migrated files (on-disk), and HighLight with migrated
// files resident in the segment cache (in-cache).
func Table2(s Scale) (*Report, error) {
	rep := newReport(fmt.Sprintf("Table 2: large-object performance (%.1f MB object)", s.objectMB()))
	rep.addf("%-28s %10s %12s", "phase / configuration", "elapsed", "throughput")

	for _, c := range []struct {
		name     string
		build    func(Scale) *fsRig
		migrated bool // the object is migrated first and read from the segment cache
	}{
		{"FFS", newFFSRig, false},
		{"Base LFS", newLFSRig, false},
		{"HighLight on-disk", newHLRig, false},
		{"HighLight in-cache", newHLRig, true},
	} {
		r := c.build(s)
		var results []wl.PhaseResult
		err := r.run(func(p *sim.Proc) error {
			var f wl.Handle
			var err error
			if c.migrated {
				f, _, err = migrateLargeObject(p, r, s)
			} else {
				f, err = wl.CreateLargeObject(p, r.t, s.spec())
			}
			if err != nil {
				return err
			}
			results, err = wl.RunLargeObject(p, r.t, f, s.spec())
			return err
		})
		if err != nil {
			return rep, fmt.Errorf("table 2 %s: %w", c.name, err)
		}
		rep.addf("%s:", c.name)
		for _, ph := range results {
			rep.addf("  %s", ph)
			rep.metric(c.name+"/"+ph.Name+"/KBs", ph.ThroughputKBs())
		}
	}
	return rep, nil
}

// Table3 measures access delays (§7.2): time to first byte and total
// elapsed time for whole-file reads on FFS, HighLight with the file in the
// segment cache, and HighLight with the file uncached (demand fetch from
// the MO jukebox, volume already in a drive).
func Table3(s Scale) (*Report, error) {
	rep := newReport("Table 3: access delays for files")
	rep.addf("%-8s %-22s %12s %12s", "size", "configuration", "first byte", "total")

	// scan reads every file whole from cold buffers and records the row;
	// with uncached set the segment cache is ejected before each file too.
	scan := func(p *sim.Proc, r *fsRig, cfgName string, uncached bool) error {
		for _, size := range s.FileSizes {
			if err := r.t.FlushCaches(p); err != nil {
				return err
			}
			if uncached {
				if _, err := r.hl.Svc.EjectAll(); err != nil {
					return err
				}
			}
			f, err := r.t.Open(p, "/"+sizeName(size))
			if err != nil {
				return err
			}
			fb, tot, err := wl.SequentialScan(p, f, size)
			if err != nil {
				return err
			}
			rep.addf("%-8s %-22s %10.2f s %10.2f s", sizeName(size), cfgName, fb.Seconds(), tot.Seconds())
			rep.metric(fmt.Sprintf("%s/%s/first", cfgName, sizeName(size)), fb.Seconds())
			rep.metric(fmt.Sprintf("%s/%s/total", cfgName, sizeName(size)), tot.Seconds())
		}
		return nil
	}
	write := func(p *sim.Proc, r *fsRig) error {
		for _, size := range s.FileSizes {
			if err := writeSized(p, r.t, "/"+sizeName(size), size); err != nil {
				return err
			}
		}
		return nil
	}

	ffsRig := newFFSRig(s)
	err := ffsRig.run(func(p *sim.Proc) error {
		if err := write(p, ffsRig); err != nil {
			return err
		}
		return scan(p, ffsRig, "FFS", false)
	})
	if err != nil {
		return rep, fmt.Errorf("table 3 ffs: %w", err)
	}

	r := newHLRig(s)
	err = r.run(func(p *sim.Proc) error {
		if err := write(p, r); err != nil {
			return err
		}
		var inums []uint32
		for _, size := range s.FileSizes {
			f, err := r.hl.FS.Open(p, "/"+sizeName(size))
			if err != nil {
				return err
			}
			inums = append(inums, f.Inum())
		}
		if _, err := migrateAll(p, r.hl, inums); err != nil {
			return err
		}
		// In-cache: migrated but still cached on disk.
		if err := scan(p, r, "HighLight in-cache", false); err != nil {
			return err
		}
		// Uncached: demand-fetch from the MO jukebox ("the tertiary volume
		// was in the drive when the tests began" — the write drive still
		// holds it).
		return scan(p, r, "HighLight uncached", true)
	})
	if err != nil {
		return rep, fmt.Errorf("table 3 highlight: %w", err)
	}
	return rep, nil
}

func sizeName(n int64) string {
	switch {
	case n >= 1024*1024:
		return fmt.Sprintf("%dMB", n/(1024*1024))
	default:
		return fmt.Sprintf("%dKB", n/1024)
	}
}

func writeSized(p *sim.Proc, t wl.Target, path string, size int64) error {
	f, err := t.Create(p, path)
	if err != nil {
		return err
	}
	chunk := make([]byte, 64*1024)
	for off := int64(0); off < size; off += int64(len(chunk)) {
		n := int64(len(chunk))
		if size-off < n {
			n = size - off
		}
		for i := range chunk[:n] {
			chunk[i] = byte(off + int64(i))
		}
		if _, err := f.WriteAt(p, chunk[:n], off); err != nil {
			return err
		}
	}
	return t.Sync(p)
}

// Table4 breaks down where migration time goes: inside the Footprint
// library (media change, seek, tertiary transfer), in the I/O server
// reading staged segments off disk, and queuing. The phase times are
// summed from the tertiary service's obs spans ("fp.write", "io.read",
// "svc.queue") — the same instrumentation the Chrome trace export shows.
func Table4(s Scale) (*Report, error) {
	rep := newReport("Table 4: migration time breakdown (magnetic to MO disk)")
	r := newHLRig(s)
	var fpWrite, ioRead, queue sim.Time
	err := r.run(func(p *sim.Proc) error {
		if _, _, err := migrateLargeObject(p, r, s); err != nil {
			return err
		}
		o := r.hl.Obs
		fpWrite, ioRead, queue = o.CatTotal("fp.write"), o.CatTotal("io.read"), o.CatTotal("svc.queue")
		return nil
	})
	if err != nil {
		return rep, err
	}
	total := fpWrite + ioRead + queue
	if total == 0 {
		return rep, fmt.Errorf("table 4: no migration activity recorded")
	}
	pct := func(t sim.Time) float64 { return 100 * float64(t) / float64(total) }
	rep.addf("%-24s %8s", "phase", "percent")
	rep.addf("%-24s %7.1f%%", "Footprint write", pct(fpWrite))
	rep.addf("%-24s %7.1f%%", "I/O server read", pct(ioRead))
	rep.addf("%-24s %7.1f%%", "Migrator queuing", pct(queue))
	rep.metric("footprint%", pct(fpWrite))
	rep.metric("ioread%", pct(ioRead))
	rep.metric("queue%", pct(queue))
	return rep, nil
}

// Table5 measures raw device bandwidth with whole-segment sequential
// transfers, and the volume-change latency.
func Table5(s Scale) (*Report, error) {
	rep := newReport("Table 5: raw device measurements")
	rep.addf("%-22s %12s", "I/O type", "performance")

	const segBytes = 1024 * 1024
	// segRate times sixteen one-segment transfers, in KB/s, after an
	// optional untimed prime step.
	segRate := func(k *sim.Kernel, prime func(*sim.Proc, []byte) error, xfer func(p *sim.Proc, i int, buf []byte) error) (float64, error) {
		var elapsed sim.Time
		err := run(k, func(p *sim.Proc) error {
			buf := make([]byte, segBytes)
			if prime != nil {
				if err := prime(p, buf); err != nil {
					return err
				}
			}
			start := p.Now()
			for i := 0; i < 16; i++ {
				if err := xfer(p, i, buf); err != nil {
					return err
				}
			}
			elapsed = p.Now() - start
			return nil
		})
		return 16 * 1024 / elapsed.Seconds(), err
	}
	diskRate := func(prof dev.DiskProfile, write bool) func() (float64, error) {
		return func() (float64, error) {
			k := sim.NewKernel()
			d := dev.NewDisk(k, prof, 64*256, dev.NewBus(k, "scsi", dev.SCSIBusRate))
			return segRate(k, nil, func(p *sim.Proc, i int, buf []byte) error {
				if write {
					return d.WriteBlocks(p, int64(i)*256, buf)
				}
				return d.ReadBlocks(p, int64(i)*256, buf)
			})
		}
	}
	moRate := func(write bool) func() (float64, error) {
		return func() (float64, error) {
			k := sim.NewKernel()
			j := jukebox.MustNew(k, jukebox.MO6300, 2, 2, 64, segBytes, dev.NewBus(k, "scsi", dev.SCSIBusRate))
			// Prime the drive so the swap is excluded.
			prime := func(p *sim.Proc, buf []byte) error { return j.WriteSegment(p, 0, 0, buf) }
			return segRate(k, prime, func(p *sim.Proc, i int, buf []byte) error {
				if write {
					return j.WriteSegment(p, 0, i+1, buf)
				}
				return j.ReadSegment(p, 0, i+1, buf)
			})
		}
	}
	volumeChange := func() (float64, error) {
		// Table 5 definition: from an eject command to a completed read
		// of ONE SECTOR on the MO platter — so the probe jukebox uses a
		// single-block transfer unit.
		k := sim.NewKernel()
		j := jukebox.MustNew(k, jukebox.MO6300, 1, 2, 4, lfs.BlockSize, nil)
		var swap sim.Time
		err := run(k, func(p *sim.Proc) error {
			buf := make([]byte, lfs.BlockSize)
			if err := j.ReadSegment(p, 0, 0, buf); err != nil {
				return err
			}
			t0 := p.Now()
			if err := j.ReadSegment(p, 1, 0, buf); err != nil {
				return err
			}
			swap = p.Now() - t0
			return nil
		})
		return swap.Seconds(), err
	}

	for _, row := range []struct {
		name    string
		measure func() (float64, error)
		unit    string
	}{
		{"Raw MO read", moRate(false), "KB/s"},
		{"Raw MO write", moRate(true), "KB/s"},
		{"Raw RZ57 read", diskRate(dev.RZ57, false), "KB/s"},
		{"Raw RZ57 write", diskRate(dev.RZ57, true), "KB/s"},
		{"Raw RZ58 read", diskRate(dev.RZ58, false), "KB/s"},
		{"Raw RZ58 write", diskRate(dev.RZ58, true), "KB/s"},
		{"Volume change", volumeChange, "s"},
	} {
		v, err := row.measure()
		if err != nil {
			return rep, fmt.Errorf("table 5 %s: %w", row.name, err)
		}
		rep.addf("%-22s %9.1f %s", row.name, v, row.unit)
		rep.metric(row.name, v)
	}
	return rep, nil
}

// Table6 measures migrator throughput while the migrator contends for the
// disk arm (staging and copy-out simultaneously) and after it finishes
// (copy-out only), for the three staging configurations of the paper.
func Table6(s Scale) (*Report, error) {
	rep := newReport(fmt.Sprintf("Table 6: migrator throughput (%.1f MB migrated)", s.objectMB()))
	rep.addf("%-24s %14s %14s %14s", "phase", "RZ57", "RZ57+RZ58", "RZ57+HP7958A")

	configs := []struct {
		name string
		kind stagingKind
	}{{"RZ57", stageOnMain}, {"RZ57+RZ58", stageOnRZ58}, {"RZ57+HP7958A", stageOnHP7958A}}
	// rates[phase][config] in KB/s: while the migrator contends for the
	// arm, after it has finished, and overall.
	var rates [3][3]float64
	for i, c := range configs {
		r := newStagedHLRig(s, c.kind)
		var m objectMigration
		err := r.run(func(p *sim.Proc) (err error) {
			_, m, err = migrateLargeObject(p, r, s)
			return err
		})
		if err != nil {
			return rep, fmt.Errorf("table 6 %s: %w", c.name, err)
		}
		if m.staged > 0 {
			rates[0][i] = float64(m.bytesStaged) / 1024 / m.staged.Seconds()
		}
		if m.drained > m.staged {
			rates[1][i] = float64(m.bytesDrained-m.bytesStaged) / 1024 / (m.drained - m.staged).Seconds()
		}
		if m.drained > 0 {
			rates[2][i] = float64(m.bytesDrained) / 1024 / m.drained.Seconds()
		}
	}
	for ph, phase := range []struct{ label, metric string }{
		{"arm contention", "contention"}, {"no arm contention", "nocontention"}, {"overall", "overall"},
	} {
		rep.addf("%-24s %9.1f KB/s %9.1f KB/s %9.1f KB/s", phase.label, rates[ph][0], rates[ph][1], rates[ph][2])
		for i, c := range configs {
			rep.metric(c.name+"/"+phase.metric, rates[ph][i])
		}
	}
	return rep, nil
}

// Table1 renders the partial-segment summary block format (Table 1) from
// the implementation's own encoder, verifying the documented sizes.
func Table1() *Report {
	rep := newReport("Table 1: partial segment summary block")
	rep.addf("%-12s %6s  %s", "field", "bytes", "description")
	rep.addf("%-12s %6d  %s", "ss_sumsum", 4, "check sum of summary block")
	rep.addf("%-12s %6d  %s", "ss_datasum", 4, "check sum of data")
	rep.addf("%-12s %6d  %s", "ss_next", 4, "segment number of next segment in log")
	rep.addf("%-12s %6d  %s", "ss_create", 8, "creation time stamp (virtual ns)")
	rep.addf("%-12s %6d  %s", "ss_nfinfo", 2, "number of file info structures")
	rep.addf("%-12s %6d  %s", "ss_ninos", 2, "number of inode blocks in summary")
	rep.addf("%-12s %6d  %s", "ss_flags", 2, "flags (checkpoint / staging)")
	rep.addf("%-12s %6d  %s", "ss_nblocks", 2, "blocks in this partial segment")
	rep.addf("%-12s %6d  %s", "ss_serial", 8, "checkpoint epoch")
	rep.addf("%-12s %6s  %s", "...", "12+4n", "per distinct file: file block descriptions")
	rep.addf("%-12s %6s  %s", "...", "4", "per inode block: disk address")
	rep.addf("(HighLight uses a %d-byte summary block: block pointers address 4 KB units)", lfs.BlockSize)
	return rep
}
