package dump

import (
	"bytes"
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
