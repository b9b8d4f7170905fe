package lfs

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/sim"
)

// allocBytes reports the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// steadyStateAlloc runs prepare (unmeasured, may be nil) then op several
// times and reports the cheapest op: the first rounds stock the free list
// and the reusable buffers, and the minimum leaves out what the runtime
// allocates now and then on its own account.
func steadyStateAlloc(prepare, op func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 8; i++ {
		if prepare != nil {
			prepare()
		}
		if got := allocBytes(op); got < best {
			best = got
		}
	}
	return best
}

// allocEnv is newEnv over a disk whose every block has been written once:
// dev.Disk allocates a block's backing store on first touch, which is the
// simulated medium growing, not the data path under test.
func allocEnv(t *testing.T, segBlocks, diskSegs int, opts Options, devs ...addr.Geom) *testEnv {
	t.Helper()
	k := sim.NewKernel()
	amap := addr.New(segBlocks, diskSegs, devs...)
	disk := dev.NewDisk(k, dev.RZ57, int64(diskSegs*segBlocks), nil)
	env := &testEnv{k: k, disk: disk, amap: amap}
	k.RunProc(func(p *sim.Proc) {
		zero := make([]byte, segBlocks*BlockSize)
		for s := 0; s < diskSegs; s++ {
			if err := disk.WriteBlocks(p, int64(s*segBlocks), zero); err != nil {
				t.Fatal(err)
			}
		}
		fs, err := Format(p, DiskDevice{disk}, amap, opts)
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		env.fs = fs
	})
	return env
}

func checkUnderOneBlock(t *testing.T, what string, got uint64) {
	t.Helper()
	t.Logf("%s: %d bytes allocated per op", what, got)
	if got >= BlockSize {
		t.Errorf("%s allocates %d bytes per op in steady state, want under %d", what, got, BlockSize)
	}
}

// The three gates below hold each hot operation under one block of
// allocation per op: bookkeeping passes, a data buffer allocated per call
// does not (one fresh slab, block or segment image is 4 KB to 1 MB).

// TestClusterReadSteadyStateAllocations: a 16-block clustered read into a
// full buffer cache recycles the blocks it evicts and reads straight into
// them, one part per block of the per-FS request.
func TestClusterReadSteadyStateAllocations(t *testing.T) {
	env := allocEnv(t, 64, 32, Options{BufferBytes: 64 * BlockSize})
	env.run(t, func(p *sim.Proc) {
		const blocks = 256 // four times the cache: a sequential scan always misses
		f := writeFile(t, p, env.fs, "/f", pattern(3, blocks*BlockSize))
		if err := env.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, readCluster*BlockSize)
		off := int64(0)
		read := func() {
			if _, err := f.ReadAt(p, buf, off); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			off = (off + int64(len(buf))) % (blocks * BlockSize)
		}
		for i := 0; i < blocks/readCluster; i++ {
			read() // fill the cache
		}
		reads := env.fs.Stats().DevReads
		checkUnderOneBlock(t, "16-block cluster read", steadyStateAlloc(nil, read))
		if got := env.fs.Stats().DevReads - reads; got < 8 {
			t.Errorf("measured reads hit the cache: %d device reads in 8 ops", got)
		}
	})
}

// TestFlushSteadyStateAllocations: overwriting 1 MB and syncing it assembles
// the partial segments in the per-FS assembly buffer.
func TestFlushSteadyStateAllocations(t *testing.T) {
	env := allocEnv(t, 256, 64, Options{BufferBytes: 4 << 20})
	env.run(t, func(p *sim.Proc) {
		data := pattern(5, 1<<20)
		f := writeFile(t, p, env.fs, "/f", data)
		flush := func() {
			if _, err := f.WriteAt(p, data, 0); err != nil {
				t.Fatal(err)
			}
			if err := env.fs.Sync(p); err != nil {
				t.Fatal(err)
			}
		}
		flush()
		written := env.fs.Stats().BytesWritten
		checkUnderOneBlock(t, "1 MB flush", steadyStateAlloc(nil, flush))
		if got := env.fs.Stats().BytesWritten - written; got < 8<<20 {
			t.Errorf("measured flushes wrote %d bytes, want at least 8 MB", got)
		}
	})
}

// TestMigratevSteadyStateAllocations: one Migratev call gathers its run
// straight into the assembly buffer and writes the staged image from there.
func TestMigratevSteadyStateAllocations(t *testing.T) {
	env := allocEnv(t, 64, 64, Options{CacheSegs: 2}, addr.Geom{Vols: 1, SegsPerVol: 8})
	env.run(t, func(p *sim.Proc) {
		const blocks = 16
		data := pattern(7, blocks*BlockSize)
		f := writeFile(t, p, env.fs, "/f", data)
		cacheSeg, err := env.fs.AllocCacheSegment(p, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		var refs []BlockRef
		prepare := func() {
			// Bring the file back to fresh disk addresses.
			if _, err := f.WriteAt(p, data, 0); err != nil {
				t.Fatal(err)
			}
			if err := env.fs.Sync(p); err != nil {
				t.Fatal(err)
			}
			if refs, err = env.fs.FileBlockRefs(p, f.Inum()); err != nil {
				t.Fatal(err)
			}
		}
		staged, want := 0, 0
		migrate := func() {
			want += len(refs) // data blocks plus the single indirect block
			res, err := env.fs.Migratev(p, refs, nil, env.amap.SegForIndex(0), cacheSeg, 0)
			if err != nil {
				t.Fatal(err)
			}
			staged += res.Blocks
		}
		checkUnderOneBlock(t, "16-block Migratev", steadyStateAlloc(prepare, migrate))
		if staged != want || staged < 8*blocks {
			t.Errorf("staged %d blocks in 8 calls, want %d", staged, want)
		}
	})
}
