package imagefs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

func smallCfg() Config {
	return Config{
		SegBlocks:  16,
		DiskSegs:   64,
		CacheSegs:  8,
		MaxInodes:  128,
		Vols:       2,
		SegsPerVol: 16,
		Drives:     2,
	}
}

func TestInitLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	data := make([]byte, 100000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	{
		k := sim.NewKernel()
		inst, err := Init(k, dir, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		k.RunProc(func(p *sim.Proc) {
			f, err := inst.HL.FS.Create(p, "/persist")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(p, data, 0); err != nil {
				t.Fatal(err)
			}
			if err := inst.HL.FS.Checkpoint(p); err != nil {
				t.Fatal(err)
			}
		})
		if err := inst.Save(); err != nil {
			t.Fatal(err)
		}
		k.Stop()
	}
	{
		k := sim.NewKernel()
		inst, err := Load(k, dir)
		if err != nil {
			t.Fatal(err)
		}
		if k.Now() == 0 {
			t.Fatal("epoch not restored")
		}
		k.RunProc(func(p *sim.Proc) {
			f, err := inst.HL.FS.Open(p, "/persist")
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("data lost across image save/load")
			}
		})
		k.Stop()
	}
}

func TestMigratedDataSurvivesReload(t *testing.T) {
	dir := t.TempDir()
	data := make([]byte, 30*16*4096/2)
	for i := range data {
		data[i] = byte(i * 3)
	}
	{
		k := sim.NewKernel()
		inst, err := Init(k, dir, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		k.RunProc(func(p *sim.Proc) {
			f, err := inst.HL.FS.Create(p, "/arch")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(p, data, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := inst.HL.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
				t.Fatal(err)
			}
			if err := inst.HL.CompleteMigration(p); err != nil {
				t.Fatal(err)
			}
		})
		if err := inst.Save(); err != nil {
			t.Fatal(err)
		}
		k.Stop()
	}
	{
		k := sim.NewKernel()
		inst, err := Load(k, dir)
		if err != nil {
			t.Fatal(err)
		}
		k.RunProc(func(p *sim.Proc) {
			// Eject everything: the read must come from the jukebox image.
			for _, l := range inst.HL.Cache.Lines() {
				if err := inst.HL.Svc.Eject(l.Tag); err != nil {
					t.Fatal(err)
				}
			}
			f, err := inst.HL.FS.Open(p, "/arch")
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("tertiary data lost across image save/load")
			}
			if inst.HL.Svc.Stats().Fetches == 0 {
				t.Fatal("read did not exercise the jukebox image")
			}
		})
		k.Stop()
	}
}

func TestInitRefusesExistingImage(t *testing.T) {
	dir := t.TempDir()
	k := sim.NewKernel()
	if _, err := Init(k, dir, smallCfg()); err != nil {
		t.Fatal(err)
	}
	k.Stop()
	k2 := sim.NewKernel()
	if _, err := Init(k2, dir, smallCfg()); err == nil {
		t.Fatal("double init accepted")
	}
	k2.Stop()
}

func TestAddDiskPersistsInImage(t *testing.T) {
	dir := t.TempDir()
	data := make([]byte, 200000)
	for i := range data {
		data[i] = byte(i * 11)
	}
	{
		k := sim.NewKernel()
		inst, err := Init(k, dir, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		k.RunProc(func(p *sim.Proc) {
			if err := inst.AddDisk(p, 32); err != nil {
				t.Fatal(err)
			}
			f, err := inst.HL.FS.Create(p, "/on-grown")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(p, data, 0); err != nil {
				t.Fatal(err)
			}
			if err := inst.HL.FS.Checkpoint(p); err != nil {
				t.Fatal(err)
			}
		})
		if err := inst.Save(); err != nil {
			t.Fatal(err)
		}
		k.Stop()
	}
	{
		k := sim.NewKernel()
		inst, err := Load(k, dir)
		if err != nil {
			t.Fatalf("reload grown image: %v", err)
		}
		if len(inst.Extra) != 1 {
			t.Fatalf("extra disks not re-attached: %d", len(inst.Extra))
		}
		if inst.HL.Amap.DiskSegs() != smallCfg().DiskSegs+32 {
			t.Fatalf("grown geometry lost: %d segments", inst.HL.Amap.DiskSegs())
		}
		k.RunProc(func(p *sim.Proc) {
			f, err := inst.HL.FS.Open(p, "/on-grown")
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("data on grown farm lost across image reload")
			}
		})
		k.Stop()
	}
}

// TestSaveStoreIsDeterministic: the image files are a function of the
// instance's state — saving twice, and loading then saving again, rewrite
// every device image byte for byte (hlfs images are reproducible).
func TestSaveStoreIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	images := func() map[string][]byte {
		out := map[string][]byte{}
		files, err := filepath.Glob(filepath.Join(dir, "*.img"))
		if err != nil || len(files) < 2 {
			t.Fatalf("image files %v, error %v", files, err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(f)] = b
		}
		return out
	}
	same := func(what string, a, b map[string][]byte) {
		t.Helper()
		for name := range a {
			if !bytes.Equal(a[name], b[name]) {
				t.Errorf("%s: %s differs", what, name)
			}
		}
	}
	k := sim.NewKernel()
	inst, err := Init(k, dir, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	k.RunProc(func(p *sim.Proc) {
		f, err := inst.HL.FS.Create(p, "/arch")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, bytes.Repeat([]byte("highlight"), 40000), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.HL.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := inst.HL.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		if err := inst.HL.FS.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
	})
	if err := inst.Save(); err != nil {
		t.Fatal(err)
	}
	first := images()
	if err := inst.Save(); err != nil {
		t.Fatal(err)
	}
	same("second save", first, images())
	k.Stop()

	k = sim.NewKernel()
	defer k.Stop()
	if inst, err = Load(k, dir); err != nil {
		t.Fatal(err)
	}
	if err := inst.Save(); err != nil {
		t.Fatal(err)
	}
	same("save after load", first, images())
}
