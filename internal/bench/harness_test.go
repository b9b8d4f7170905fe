package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// TestCellTableMatchesBaseline pins the one list of cells: names are
// unique, and the snapshot keys are exactly the tables of the committed
// baseline, each produced by one cell.
func TestCellTableMatchesBaseline(t *testing.T) {
	names := map[string]bool{}
	keys := map[string]string{}
	for _, c := range Cells {
		if c.Name == "" || c.Run == nil {
			t.Errorf("cell %+v: empty name or nil Run", c)
		}
		if names[c.Name] {
			t.Errorf("cell name %q appears twice", c.Name)
		}
		names[c.Name] = true
		if c.Key == "" {
			continue
		}
		if prev, dup := keys[c.Key]; dup {
			t.Errorf("snapshot key %q produced by both %s and %s", c.Key, prev, c.Name)
		}
		keys[c.Key] = c.Name
	}
	raw, err := os.ReadFile("../../BENCH_0.json")
	if err != nil {
		t.Fatal(err)
	}
	var base BenchSnapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	for key := range base.Tables {
		if _, ok := keys[key]; !ok {
			t.Errorf("BENCH_0.json table %q is produced by no cell", key)
		}
	}
	for key, name := range keys {
		if _, ok := base.Tables[key]; !ok {
			t.Errorf("cell %s has snapshot key %q, which BENCH_0.json lacks", name, key)
		}
	}
}

// TestEjectAll pins the one definition of "ejectable": staging and pinned
// lines stay in the cache, everything else goes.
func TestEjectAll(t *testing.T) {
	err := newStudyRig(frontEndGeom).run(nil, func(p *sim.Proc, hl *core.HighLight) error {
		// Three files migrated and drained give clean lines; a fourth,
		// migrated with copy-outs held back, leaves staging lines.
		clean, err := writeFiles(p, hl.FS, "/clean%d", 3, 60)
		if err != nil {
			return err
		}
		if _, err := migrateAll(p, hl, clean); err != nil {
			return err
		}
		hl.DelayCopyouts = true
		held, err := writeFiles(p, hl.FS, "/held%d", 1, 60)
		if err != nil {
			return err
		}
		if _, err := hl.MigrateFiles(p, held, false); err != nil {
			return err
		}
		var cleanLines, staging []*cache.Line
		for _, l := range hl.Cache.Lines() {
			if l.Staging {
				staging = append(staging, l)
			} else {
				cleanLines = append(cleanLines, l)
			}
		}
		if len(cleanLines) < 3 || len(staging) == 0 {
			t.Fatalf("setup: %d clean and %d staging lines, want >= 3 and >= 1", len(cleanLines), len(staging))
		}

		// A reader's pin and the staging flag make a line not ejectable:
		// skipped, not an error.
		pinned := cleanLines[2]
		pinned.Pins++
		if _, err := hl.Svc.EjectAll(); err != nil {
			t.Errorf("EjectAll = %v", err)
		}
		want := map[int]bool{pinned.Tag: true}
		for _, l := range staging {
			want[l.Tag] = true
		}
		for _, l := range hl.Cache.Lines() {
			if !want[l.Tag] {
				t.Errorf("line %d survived EjectAll and is neither staging nor pinned", l.Tag)
			}
			delete(want, l.Tag)
		}
		for tag := range want {
			t.Errorf("staging or pinned line %d was ejected", tag)
		}
		pinned.Pins--
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStudyRigRemountMatchesHandBuilt rebuilds by hand, the way
// ablationCrashRecovery did before the study rig existed, the crash and
// remount of its 16-segment row, and requires the rig's format=false mount
// over restored images to recover exactly the same.
func TestStudyRigRemountMatchesHandBuilt(t *testing.T) {
	const segBlocks, segs = 32, 16
	mk := func(k *sim.Kernel) (*dev.Disk, *jukebox.Jukebox, core.Config) {
		bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
		disk := dev.NewDisk(k, dev.RZ57, 384*segBlocks, bus)
		disk.EnableWriteCache(16)
		juke := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 16, segBlocks*lfs.BlockSize, bus)
		return disk, juke, core.Config{
			SegBlocks:   segBlocks,
			Disks:       []dev.BlockDev{disk},
			Jukeboxes:   []jukebox.Footprint{juke},
			CacheSegs:   8,
			MaxInodes:   1024,
			BufferBytes: 1 << 20,
		}
	}
	k := sim.NewKernel()
	disk, juke, cfg := mk(k)
	var diskImg, jukeImg bytes.Buffer
	var cut sim.Time
	err := run(k, func(p *sim.Proc) error {
		hl, err := core.New(p, cfg, true)
		if err != nil {
			return err
		}
		if _, err := writeFile(p, hl.FS, "/base", 64); err != nil {
			return err
		}
		if err := hl.Checkpoint(p); err != nil {
			return err
		}
		for i := 0; i < segs; i++ {
			if _, err := writeFile(p, hl.FS, fmt.Sprintf("/post%03d", i), segBlocks-4); err != nil {
				return err
			}
			if err := hl.FS.Sync(p); err != nil {
				return err
			}
		}
		cut = p.Now()
		return errors.Join(disk.SaveStore(&diskImg), juke.SaveStore(&jukeImg))
	})
	if err != nil {
		t.Fatal(err)
	}
	k2 := sim.NewKernel()
	k2.AdvanceTo(cut)
	disk2, juke2, cfg2 := mk(k2)
	if err := errors.Join(disk2.LoadStore(&diskImg), juke2.LoadStore(&jukeImg)); err != nil {
		t.Fatal(err)
	}
	var want lfs.RecoveryInfo
	var wantElapsed sim.Time
	err = run(k2, func(p *sim.Proc) error {
		hl, err := core.New(p, cfg2, false)
		if err != nil {
			return err
		}
		want, wantElapsed = hl.FS.Recovery(), p.Now()-cut
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	got, gotElapsed, err := crashAndRecover(segs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || gotElapsed != wantElapsed {
		t.Errorf("study rig remount recovered %+v in %v, hand-built rig %+v in %v", got, gotElapsed, want, wantElapsed)
	}
	if got.PsegsReplayed == 0 {
		t.Error("nothing was rolled forward: the comparison is vacuous")
	}
}

// settledGoroutines samples runtime.NumGoroutine once it has held still for
// ten milliseconds: the previous test's runner may still be exiting, which
// read as "-1 goroutines" below about once in 25 runs under -race.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for same := 0; same < 10; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestFailedTableStopsItsRig pins the error path of the migration tables:
// on a disk too small for the object they return the error, and the rig's
// tertiary service and I/O daemons are stopped rather than left parked —
// every one of them is a coroutine with a goroutine under it.
func TestFailedTableStopsItsRig(t *testing.T) {
	s := QuickScale()
	s.DiskSegs = s.CacheSegs + 12 // 3 MB of log for an 8 MB object
	for _, table := range []struct {
		name string
		run  func(Scale) (*Report, error)
	}{{"Table4", Table4}, {"Table6", Table6}} {
		before := settledGoroutines()
		if _, err := table.run(s); err == nil {
			t.Errorf("%s on a %d-segment disk returned no error", table.name, s.DiskSegs)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%s left %d goroutines behind its error return", table.name, after-before)
		}
	}
}
