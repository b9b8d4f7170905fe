package tertiary

import (
	"bytes"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/sim"
)

// BenchmarkReplicatedCopyout is a replicated line's turn in `make
// bench-layers`: one staged 1 MB line copied out to two libraries, as on
// `serve` (Replicas: 2). B/op is the line's one image; the second copy-out
// reads into its I/O process's buffer and hands the changer the same image.
func BenchmarkReplicatedCopyout(b *testing.B) {
	const line = 256
	k := sim.NewKernel()
	geom := addr.Geom{Vols: 1, SegsPerVol: 4}
	amap := addr.New(line, 4, geom, geom)
	disk := dev.NewDisk(k, dev.RZ57, 4*line, nil)
	var jukes []jukebox.Footprint
	for range 2 {
		jukes = append(jukes, jukebox.MustNew(k, jukebox.MO6300, 1, 1, 4, line*dev.BlockSize, nil))
	}
	c := cache.New(cache.LRU, []addr.SegNo{0}, 1)
	svc := New(k, nil, amap, jukebox.AsLibraries(jukes), disk, c)
	b.ReportAllocs()
	b.SetBytes(line * dev.BlockSize)
	k.RunProc(func(p *sim.Proc) {
		seg, _ := c.TakeFree()
		if _, err := c.Insert(0, seg, true, p.Now()); err != nil {
			b.Fatal(err)
		}
		if err := disk.WriteBlocks(p, 0, bytes.Repeat([]byte{0x5A}, line*dev.BlockSize)); err != nil {
			b.Fatal(err)
		}
		copyOut := func() {
			svc.ScheduleCopyouts(p, seg, nil, 0, 0, 4)
			svc.DrainCopyouts(p)
		}
		for range 4 { // every I/O process has had its turn: their buffers exist
			copyOut()
		}
		b.ResetTimer()
		for range b.N {
			copyOut()
		}
	})
	if s := svc.Stats(); s.Copyouts != 2*int64(b.N+4) {
		b.Fatalf("%d copy-outs, want %d", s.Copyouts, 2*(b.N+4))
	}
	k.Stop()
}
