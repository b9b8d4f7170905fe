package dump

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

func demoHL(t *testing.T) (*sim.Kernel, *core.HighLight) {
	t.Helper()
	k := sim.NewKernel()
	disk := dev.NewDisk(k, dev.RZ57, 128*16, nil)
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 16, 16*lfs.BlockSize, nil)
	var hl *core.HighLight
	k.RunProc(func(p *sim.Proc) {
		var err error
		hl, err = core.New(p, core.Config{
			SegBlocks: 16,
			Disks:     []dev.BlockDev{disk},
			Jukeboxes: []jukebox.Footprint{juke},
			CacheSegs: 12,
			MaxInodes: 128,
		}, true)
		if err != nil {
			t.Fatal(err)
		}
	})
	return k, hl
}

func TestLayoutRendersStatesAndContents(t *testing.T) {
	k, hl := demoHL(t)
	var out bytes.Buffer
	k.RunProc(func(p *sim.Proc) {
		f, err := hl.FS.Create(p, "/file")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, make([]byte, 20*lfs.BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		if err := Layout(p, &out, hl, 0); err != nil {
			t.Fatal(err)
		}
	})
	s := out.String()
	for _, want := range []string{"disk segments", "tertiary segments", "cache-line for tertiary seg", "pseg", "file inum"} {
		if !strings.Contains(s, want) {
			t.Errorf("layout missing %q:\n%s", want, s)
		}
	}
	k.Stop()
}

// TestLayoutMarksDiscardedSegments: once the full checkpoint that ends a
// migration is durable, the segments that held the migrated blocks are
// discarded, the layout says so instead of listing no partial segments, and
// the disk's resident memory falls.
func TestLayoutMarksDiscardedSegments(t *testing.T) {
	k, hl := demoHL(t)
	var before, after bytes.Buffer
	k.RunProc(func(p *sim.Proc) {
		f, err := hl.FS.Create(p, "/file")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, bytes.Repeat([]byte{7}, 40*lfs.BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		if err := hl.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		if err := Layout(p, &before, hl, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil { // ends with a full checkpoint
			t.Fatal(err)
		}
		if err := Layout(p, &after, hl, 0); err != nil {
			t.Fatal(err)
		}
	})
	if strings.Contains(before.String(), "(discarded)") || !strings.Contains(after.String(), "(discarded)") {
		t.Errorf("only the layout after the migration should mark a discarded segment:\nbefore:\n%s\nafter:\n%s", before.String(), after.String())
	}
	diskMB := func(s string) (mb float64) {
		i := strings.Index(s, "disk 0:")
		if i < 0 {
			t.Fatalf("no resident line for disk 0:\n%s", s)
		}
		fmt.Sscan(s[i+len("disk 0:"):], &mb)
		return mb
	}
	if b, a := diskMB(before.String()), diskMB(after.String()); a >= b {
		t.Errorf("disk 0 holds %.2f MB after the discard, %.2f MB before", a, b)
	}
	k.Stop()
}

func TestAddrMapRender(t *testing.T) {
	k, hl := demoHL(t)
	var out bytes.Buffer
	AddrMap(&out, hl)
	if !strings.Contains(out.String(), "dead zone") {
		t.Fatalf("addrmap output missing dead zone:\n%s", out.String())
	}
	k.Stop()
}

func TestHierarchyNarration(t *testing.T) {
	k, hl := demoHL(t)
	var out bytes.Buffer
	k.RunProc(func(p *sim.Proc) {
		if err := Hierarchy(p, &out, hl); err != nil {
			t.Fatal(err)
		}
	})
	s := out.String()
	for _, want := range []string{"disk farm", "automigration", "demand fetch", "fetches=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("hierarchy narration missing %q:\n%s", want, s)
		}
	}
	k.Stop()
}

func TestDataPathNarration(t *testing.T) {
	k, hl := demoHL(t)
	var out bytes.Buffer
	k.RunProc(func(p *sim.Proc) {
		if err := DataPath(p, &out, hl); err != nil {
			t.Fatal(err)
		}
	})
	s := out.String()
	for _, want := range []string{"block map", "service proc", "Footprint.LendSegment", "restart the I/O"} {
		if !strings.Contains(s, want) {
			t.Errorf("datapath narration missing %q:\n%s", want, s)
		}
	}
	k.Stop()
}
