package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// Every library has its own I/O processes, and a fetch goes to the library
// with a mounted copy and the least outstanding (DESIGN.md, "Parallel
// consumers"): four readers missing at once are served by both changers, and
// LibraryStatuses says so. At the parent commit library 1 read nothing.
func TestConcurrentReadersUseBothLibraries(t *testing.T) {
	k := sim.NewKernel()
	disk := dev.NewDisk(k, dev.RZ57, 256*16, nil)
	var jukes []jukebox.Footprint
	for i := 0; i < 2; i++ {
		jukes = append(jukes, jukebox.MustNew(k, jukebox.MO6300, 2, 4, 32, 16*lfs.BlockSize, nil))
	}
	var hl *HighLight
	files := make([]*lfs.File, 4)
	k.RunProc(func(p *sim.Proc) {
		var err error
		hl, err = New(p, Config{SegBlocks: 16, Disks: []dev.BlockDev{disk}, Jukeboxes: jukes,
			CacheSegs: 24, MaxInodes: 256, Replicas: 2, Streams: 2, BufferBytes: 64 * lfs.BlockSize}, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range files {
			files[i] = archive(t, p, hl, fmt.Sprintf("/f%d", i), pat(byte(i), 12*lfs.BlockSize), false)
		}
		for _, l := range hl.Cache.Lines() {
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatal(err)
			}
		}
	})
	before := hl.LibraryStatuses()
	for i, f := range files {
		k.Go("reader", func(p *sim.Proc) {
			got, err := readWhole(p, f, 12*lfs.BlockSize)
			if err != nil || !bytes.Equal(got, pat(byte(i), 12*lfs.BlockSize)) {
				t.Errorf("read of /f%d: err %v, content ok %v", i, err, err == nil)
			}
		})
	}
	k.Run()
	var reads int64
	for i, st := range hl.LibraryStatuses() {
		n := st.Reads - before[i].Reads
		if n == 0 {
			t.Errorf("library %d served none of the concurrent fetches", i)
		}
		if st.Writes == 0 || st.Outstanding != 0 {
			t.Errorf("library %d: %d writes (each holds a copy of every segment), %d outstanding after the run", i, st.Writes, st.Outstanding)
		}
		reads += n
	}
	if f := hl.Svc.Stats().Fetches; reads != f || f == 0 {
		t.Errorf("libraries read %d segments for %d fetches", reads, f)
	}
	k.Stop()
}

// With two libraries and Replicas: 2, the copy-outs of a staged line, made
// at once (closeStaging) or delayed (FlushCopyouts), leave both media holding
// one image of the line; the file reads back from either library.
func TestReplicasOfAStagedLineShareOneImage(t *testing.T) {
	k := sim.NewKernel()
	disk := dev.NewDisk(k, dev.RZ57, 256*16, nil)
	var jukes []jukebox.Footprint
	for i := 0; i < 2; i++ {
		jukes = append(jukes, jukebox.MustNew(k, jukebox.MO6300, 2, 4, 32, 16*lfs.BlockSize, nil))
	}
	k.RunProc(func(p *sim.Proc) {
		hl, err := New(p, Config{SegBlocks: 16, Disks: []dev.BlockDev{disk}, Jukeboxes: jukes,
			CacheSegs: 24, MaxInodes: 256, Replicas: 2, Streams: 2, BufferBytes: 64 * lfs.BlockSize}, true)
		if err != nil {
			t.Fatal(err)
		}
		data := [2][]byte{pat(1, 40*lfs.BlockSize), pat(2, 24*lfs.BlockSize)}
		f0 := archive(t, p, hl, "/now", data[0], false)
		hl.DelayCopyouts = true
		f1 := archive(t, p, hl, "/later", data[1], true)
		cat := hl.ReplicaCatalog()
		if len(cat) < 4 {
			t.Fatalf("%d replicated segments, want the 4 or more two files fill", len(cat))
		}
		medium := func(tag int) []byte {
			d, v, s, _ := hl.Amap.Loc(hl.Amap.SegForIndex(tag))
			img, err := jukes[d].LendSegment(p, v, s)
			if err != nil || img == nil {
				t.Fatalf("segment %d on library %d: %v", tag, d, err)
			}
			return img
		}
		for prim, reps := range cat {
			a, b := medium(prim), medium(reps[0])
			if len(reps) != 1 || &a[0] != &b[0] {
				t.Errorf("segment %d and its replicas %v hold more than one image", prim, reps)
			}
		}
		for i, f := range []*lfs.File{f0, f1} {
			if got, err := readWhole(p, f, len(data[i])); err != nil || !bytes.Equal(got, data[i]) {
				t.Errorf("file %d reads back wrong (err %v)", i, err)
			}
		}
	})
	k.Stop()
}
