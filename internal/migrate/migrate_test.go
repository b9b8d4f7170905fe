package migrate

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

type env struct {
	k  *sim.Kernel
	hl *core.HighLight
}

func newEnv(t *testing.T) *env {
	t.Helper()
	const segBlocks = 16
	k := sim.NewKernel()
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	disk := dev.NewDisk(k, dev.RZ57, int64(128*segBlocks), bus)
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 8, 32, segBlocks*lfs.BlockSize, bus)
	e := &env{k: k}
	k.RunProc(func(p *sim.Proc) {
		hl, err := core.New(p, core.Config{
			SegBlocks:   segBlocks,
			Disks:       []dev.BlockDev{disk},
			Jukeboxes:   []jukebox.Footprint{juke},
			CacheSegs:   16,
			MaxInodes:   512,
			BufferBytes: 1 << 20,
		}, true)
		if err != nil {
			t.Fatal(err)
		}
		e.hl = hl
	})
	return e
}

func (e *env) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	e.k.RunProc(fn)
}

func mkFile(t *testing.T, p *sim.Proc, hl *core.HighLight, path string, blocks int, tag byte) *lfs.File {
	t.Helper()
	f, err := hl.FS.Create(p, path)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, blocks*lfs.BlockSize)
	for i := range data {
		data[i] = byte(int(tag)*13+i) ^ byte(i>>10)
	}
	if _, err := f.WriteAt(p, data, 0); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSTPPrefersOldAndLarge(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		oldBig := mkFile(t, p, hl, "/old-big", 20, 1)
		oldSmall := mkFile(t, p, hl, "/old-small", 2, 2)
		p.Sleep(100 * time.Second)
		freshBig := mkFile(t, p, hl, "/fresh-big", 20, 3)
		// Touch the fresh file so its atime is now.
		buf := make([]byte, 10)
		if _, err := freshBig.ReadAt(p, buf, 0); err != nil {
			t.Fatal(err)
		}
		cands, err := NewSTP().Select(p, hl, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) == 0 || cands[0].Inum != oldBig.Inum() {
			t.Fatalf("STP top candidate = %+v, want /old-big", cands[:1])
		}
		// With target big enough, old-small ranks above fresh-big.
		all, _ := NewSTP().Select(p, hl, 1<<40)
		pos := map[uint32]int{}
		for i, c := range all {
			pos[c.Inum] = i
		}
		if pos[oldSmall.Inum()] > pos[freshBig.Inum()] {
			t.Fatalf("old-small ranked below fresh-big: %v", all)
		}
	})
	e.k.Stop()
}

func TestSTPRespectsTarget(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			mkFile(t, p, e.hl, "/f"+string(rune('a'+i)), 4, byte(i))
		}
		p.Sleep(time.Second)
		cands, err := NewSTP().Select(p, e.hl, 2*4*lfs.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != 2 {
			t.Fatalf("got %d candidates for a 2-file target, want 2", len(cands))
		}
	})
	e.k.Stop()
}

func TestMigratorEndToEnd(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		f := mkFile(t, p, hl, "/dormant", 30, 7)
		p.Sleep(time.Hour)
		hot := mkFile(t, p, hl, "/hot", 5, 8)
		buf := make([]byte, 10)
		if _, err := hot.ReadAt(p, buf, 0); err != nil {
			t.Fatal(err)
		}
		m := NewMigrator(hl)
		m.Policy = &STP{TimeExp: 1, SizeExp: 1, MinAge: time.Minute}
		staged, err := m.RunOnce(p, 30*lfs.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if staged < 30*lfs.BlockSize {
			t.Fatalf("staged %d bytes, want at least the dormant file", staged)
		}
		// The dormant file is tertiary-resident; the hot one is not.
		refs, _ := hl.FS.FileBlockRefs(p, f.Inum())
		for _, r := range refs {
			if r.Lbn >= 0 && !hl.Amap.IsTertiarySeg(hl.Amap.SegOf(r.Addr)) {
				t.Fatalf("dormant block %d not migrated", r.Lbn)
			}
		}
		refsHot, _ := hl.FS.FileBlockRefs(p, hot.Inum())
		for _, r := range refsHot {
			if hl.Amap.IsTertiarySeg(hl.Amap.SegOf(r.Addr)) {
				t.Fatal("hot file migrated despite MinAge")
			}
		}
		// Data intact through demand fetch.
		hl.FS.DropFileBuffers(p, f.Inum())
		for _, l := range hl.Cache.Lines() {
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]byte, 30*lfs.BlockSize)
		for i := range want {
			want[i] = byte(7*13+i) ^ byte(i>>10)
		}
		got := make([]byte, len(want))
		if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("dormant file corrupted by migration")
		}
	})
	e.k.Stop()
}

func TestNamespaceUnitsMigrateTogether(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		if err := hl.FS.Mkdir(p, "/proj"); err != nil {
			t.Fatal(err)
		}
		if err := hl.FS.Mkdir(p, "/proj/alpha"); err != nil {
			t.Fatal(err)
		}
		if err := hl.FS.Mkdir(p, "/proj/beta"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			mkFile(t, p, hl, "/proj/alpha/f"+string(rune('0'+i)), 3, byte(i))
		}
		p.Sleep(time.Hour)
		for i := 0; i < 4; i++ {
			mkFile(t, p, hl, "/proj/beta/g"+string(rune('0'+i)), 3, byte(10+i))
		}
		ns := NewNamespace()
		// Target one unit's worth: all four alpha files (older unit)
		// must be selected, and no beta file.
		cands, err := ns.Select(p, hl, 12*lfs.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != 4 {
			t.Fatalf("got %d candidates, want the 4-file alpha unit: %v", len(cands), cands)
		}
		for _, c := range cands {
			if c.Unit != "/proj/alpha" {
				t.Fatalf("candidate %s from unit %s, want /proj/alpha", c.Path, c.Unit)
			}
		}
	})
	e.k.Stop()
}

func TestRangeTrackerMergesSequential(t *testing.T) {
	k := sim.NewKernel()
	tr := NewRangeTracker(k)
	// A sequential whole-file read arrives as consecutive chunks at the
	// same virtual time: one record results.
	tr.record(1, 0, 4, 100)
	tr.record(1, 4, 8, 100)
	tr.record(1, 8, 12, 100)
	rs := tr.files[1]
	if len(rs) != 1 || rs[0].Start != 0 || rs[0].End != 12 {
		t.Fatalf("sequential access fragmented: %v", rs)
	}
}

func TestRangeTrackerSplitsOnNewAccess(t *testing.T) {
	k := sim.NewKernel()
	tr := NewRangeTracker(k)
	tr.record(1, 0, 10, 100)
	tr.record(1, 4, 6, 200) // re-access the middle
	rs := tr.files[1]
	if len(rs) != 3 {
		t.Fatalf("want 3 ranges after middle re-access, got %v", rs)
	}
	if rs[1].Last != 200 || rs[0].Last != 100 || rs[2].Last != 100 {
		t.Fatalf("timestamps wrong: %v", rs)
	}
}

func TestRangeTrackerCapsRecords(t *testing.T) {
	k := sim.NewKernel()
	tr := NewRangeTracker(k)
	// Disjoint fragments with distinct stamps, more than the cap holds.
	for i := int32(0); i < 3*maxRangeRecords; i++ {
		tr.record(1, i*2, i*2+1, sim.Time(i))
	}
	rs := tr.files[1]
	if len(rs) > maxRangeRecords {
		t.Fatalf("cap not enforced: %d records", len(rs))
	}
	// Invariants: sorted and disjoint.
	for i := 1; i < len(rs); i++ {
		if rs[i].Start < rs[i-1].End {
			t.Fatalf("ranges overlap: %v", rs)
		}
	}
}

func TestBlockRangePolicyMigratesOnlyColdRanges(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		tr := NewRangeTracker(e.k)
		hl.FS.OnAccess = tr.Hook
		f := mkFile(t, p, hl, "/dbfile", 20, 5)
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Hour)
		// Keep blocks 0..3 hot.
		buf := make([]byte, 4*lfs.BlockSize)
		if _, err := f.ReadAt(p, buf, 0); err != nil {
			t.Fatal(err)
		}
		cold, err := tr.ColdRefs(p, hl, f.Inum(), time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range cold {
			if r.Lbn >= 0 && r.Lbn < 4 {
				t.Fatalf("hot block %d selected as cold", r.Lbn)
			}
		}
		if _, err := hl.MigrateRefs(p, cold); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		refs, _ := hl.FS.FileBlockRefs(p, f.Inum())
		for _, r := range refs {
			if r.Lbn < 0 {
				continue
			}
			tert := hl.Amap.IsTertiarySeg(hl.Amap.SegOf(r.Addr))
			if r.Lbn < 4 && tert {
				t.Fatalf("hot block %d migrated", r.Lbn)
			}
			if r.Lbn >= 4 && !tert {
				t.Fatalf("cold block %d not migrated", r.Lbn)
			}
		}
	})
	e.k.Stop()
}

func TestMigratorDaemonReactsToPressure(t *testing.T) {
	e := newEnv(t)
	m := NewMigrator(e.hl)
	m.Policy = &STP{TimeExp: 1, SizeExp: 1, MinAge: 10 * time.Second}
	m.LowWaterSegs = 1000 // aggressive: fire on every poll
	m.HighWaterSegs = 1001
	m.Interval = time.Second
	e.k.GoDaemon("migrator", m.Daemon)
	e.run(t, func(p *sim.Proc) {
		mkFile(t, p, e.hl, "/bulk", 40, 9)
		if err := e.hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		p.Sleep(20 * time.Second)
		// Let the daemon observe aged files and run.
		p.Sleep(200 * time.Second)
	})
	if m.Runs == 0 || m.BytesStaged == 0 {
		t.Fatalf("daemon never migrated (runs=%d staged=%d)", m.Runs, m.BytesStaged)
	}
	e.k.Stop()
}

// TestRangeTrackerColdRegionSurvivesHotChurn regresses the cap-merge
// heuristic: hundreds of random accesses to a small hot tail must not
// absorb a large dormant region into a hot-stamped range (timestamp
// similarity alone would eventually merge the cold|hot boundary; the
// span-weighted cost keeps the dormant region intact).
func TestRangeTrackerColdRegionSurvivesHotChurn(t *testing.T) {
	k := sim.NewKernel()
	tr := NewRangeTracker(k)
	// Load era: pages 0..4096 written in chunks with slightly different
	// stamps.
	for i := int32(0); i < 4096; i += 64 {
		tr.record(1, i, i+64, sim.Time(i)*time.Millisecond)
	}
	// An hour later, 400 random accesses within the newest 10%.
	rng := sim.NewRNG(7)
	base := sim.Time(time.Hour)
	for q := 0; q < 400; q++ {
		pg := int32(3686 + rng.Intn(410))
		tr.record(1, pg, pg+1, base+sim.Time(q)*time.Millisecond)
	}
	coldBlocks := 0
	for _, r := range tr.files[1] {
		if base-r.Last > sim.Time(30*time.Minute) {
			coldBlocks += int(r.End - r.Start)
		}
	}
	if coldBlocks < 3000 {
		t.Fatalf("only %d blocks still classified cold; dormant region poisoned by hot churn", coldBlocks)
	}
}

// TestNamespaceHotStableCriterion exercises §5.3's secondary criterion:
// a unit of mostly-dormant files must still migrate when its single
// "hot" file is stable (recently read but long unmodified) — otherwise
// "the inactive files are polluting the active disk area".
func TestNamespaceHotStableCriterion(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		if err := hl.FS.Mkdir(p, "/unit"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			mkFile(t, p, hl, "/unit/dormant"+string(rune('0'+i)), 3, byte(i))
		}
		popular := mkFile(t, p, hl, "/unit/popular-image", 3, 9)
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		// A day passes; the popular file keeps being READ (stable: never
		// modified) while everything else sleeps.
		p.Sleep(24 * time.Hour)
		buf := make([]byte, 10)
		if _, err := popular.ReadAt(p, buf, 0); err != nil {
			t.Fatal(err)
		}
		// Without the secondary criterion the unit looks active.
		strict := NewNamespace()
		strict.IgnoreHotStable = false
		strict.MinAge = time.Hour
		cands, err := strict.Select(p, hl, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			if c.Unit == "/unit" {
				t.Fatalf("strict policy selected the hot unit: %+v", c)
			}
		}
		// With it, the stable popular file no longer pins the unit.
		lenient := NewNamespace()
		lenient.MinAge = time.Hour
		lenient.StableAge = time.Hour
		cands, err = lenient.Select(p, hl, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, c := range cands {
			if c.Unit == "/unit" {
				found++
			}
		}
		if found != 5 {
			t.Fatalf("hot-stable criterion selected %d of the unit's 5 files", found)
		}
	})
	e.k.Stop()
}
