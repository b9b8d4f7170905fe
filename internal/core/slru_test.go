package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// hotColdFetches runs eight closed-loop readers over two replicated libraries
// and a 12-line cache: seven reads in ten go to 8 hot files, the rest to a
// tail of 40, each file one tertiary segment. It returns the demand fetches
// of the read phase.
func hotColdFetches(t *testing.T, policy cache.Policy) int64 {
	const (
		hot, files = 8, 48
		size       = 12 * lfs.BlockSize
	)
	k := sim.NewKernel()
	disk := dev.NewDisk(k, dev.RZ57, 256*16, nil)
	var jukes []jukebox.Footprint
	for i := 0; i < 2; i++ {
		jukes = append(jukes, jukebox.MustNew(k, jukebox.MO6300, 2, 4, 32, 16*lfs.BlockSize, nil))
	}
	var hl *HighLight
	fs := make([]*lfs.File, files)
	k.RunProc(func(p *sim.Proc) {
		var err error
		hl, err = New(p, Config{SegBlocks: 16, Disks: []dev.BlockDev{disk}, Jukeboxes: jukes, CachePolicy: policy,
			CacheSegs: 12, MaxInodes: 256, Replicas: 2, Streams: 2, BufferBytes: 64 * lfs.BlockSize}, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fs {
			fs[i] = archive(t, p, hl, fmt.Sprintf("/f%d", i), pat(byte(i), size), true)
		}
	})
	before := hl.Svc.Stats().Fetches
	for r := 0; r < 8; r++ {
		k.Go("reader", func(p *sim.Proc) {
			rng := sim.NewRNG(uint64(1993 + r))
			for n := 0; n < 40; n++ {
				i := rng.Intn(hot)
				if rng.Intn(10) >= 7 {
					i = hot + rng.Intn(files-hot)
				}
				hl.FS.DropFileBuffers(p, fs[i].Inum())
				got, err := readWhole(p, fs[i], size)
				if err != nil || !bytes.Equal(got, pat(byte(i), size)) {
					t.Errorf("read of /f%d: err %v, content ok %v", i, err, err == nil)
					return
				}
			}
		})
	}
	k.Run()
	s := hl.Svc.Stats()
	if s.FetchFaults != 0 || hl.Svc.Outstanding(0)+hl.Svc.Outstanding(1) != 0 {
		t.Errorf("%v: %d fetch faults, %d/%d outstanding", policy, s.FetchFaults, hl.Svc.Outstanding(0), hl.Svc.Outstanding(1))
	}
	k.Stop()
	return s.Fetches - before
}

// The default policy keeps the hot files' segments through the tail's
// traffic; plain LRU, same seed, same readers, fetches them again and again.
func TestHotFilesStayCachedUnderConcurrentReaders(t *testing.T) {
	slru, lru := hotColdFetches(t, cache.SLRU), hotColdFetches(t, cache.LRU)
	t.Logf("demand fetches of 320 reads: %d segmented LRU, %d plain LRU", slru, lru)
	if slru >= lru {
		t.Errorf("segmented LRU fetched %d segments, plain LRU %d: want fewer", slru, lru)
	}
}

// A remount finds bound lines in the checkpointed directory; the cache must
// still know how many lines it has (the protected segment's cap and the
// refetch ring are sized by it). At the parent commit only the unbound
// segments counted.
func TestRemountKeepsCacheCapacity(t *testing.T) {
	e := newHL(t, 64, 8, 4, 16)
	e.run(t, func(p *sim.Proc) {
		archive(t, p, e.hl, "/a", pat(3, 40*lfs.BlockSize), false)
		if err := e.hl.FS.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		lines := e.hl.Cache.Len()
		if lines == 0 {
			t.Fatal("nothing cached before the remount")
		}
		hl, err := New(p, Config{SegBlocks: 16, Disks: []dev.BlockDev{e.disk}, Jukeboxes: []jukebox.Footprint{e.juke},
			CacheSegs: 8, MaxInodes: 256, BufferBytes: 1 << 20}, false)
		if err != nil {
			t.Fatal(err)
		}
		if c := hl.Cache; c.Capacity() != 8 || c.Len() != lines || c.Len()+c.FreeLines() != 8 {
			t.Errorf("after remount: capacity %d, %d lines (%d before), %d free, want 8 in all", c.Capacity(), c.Len(), lines, c.FreeLines())
		}
	})
	e.k.Stop()
}
