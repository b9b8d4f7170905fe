package lfs

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/obs/reqtrace"
	"repro/internal/sim"
)

// tertDev is a disk with the Fetcher capability: the segments in away read
// as if they were on tertiary storage, costing fetchTime before they can be
// read. It stands in for HighLight's block map so the restart rule of
// readOnly can be tested without a jukebox. Where the address map has a
// tertiary region, a tertiary segment reads from the disk segment in line
// that Migratev mirrored it into (the cache line it never leaves here).
type tertDev struct {
	DiskDevice
	amap      *addr.Map
	away      map[addr.SegNo]bool
	line      map[addr.SegNo]addr.SegNo
	fetchTime sim.Time
	// thrash: a fetched segment is evicted again before the reader that
	// asked for it is back; only a reader that waits inside ReadParts
	// (holding the file system lock) gets to read it.
	thrash bool

	fetches     int // Fetch calls: waits with the file system lock released
	held        int // waits inside ReadParts: the caller kept the lock
	again       int // ReadAgain calls: reads issued again after a Fetch
	inFlight    int
	maxInFlight int
	ahead       []addr.SegNo // the segments ReadAhead asked for, in order
}

func (d *tertDev) waits(b addr.BlockNo, n int) []addr.SegNo {
	var segs []addr.SegNo
	for s := d.amap.SegOf(b); s <= d.amap.SegOf(b+addr.BlockNo(n-1)); s++ {
		if d.away[s] {
			segs = append(segs, s)
		}
	}
	return segs
}

func (d *tertDev) WouldWait(b addr.BlockNo, n int) bool { return len(d.waits(b, n)) > 0 }

func (d *tertDev) Fetch(p *sim.Proc, b addr.BlockNo, n int) error {
	d.fetches++
	d.inFlight++
	d.maxInFlight = max(d.maxInFlight, d.inFlight)
	p.Sleep(d.fetchTime)
	d.inFlight--
	if err := p.CtxErr(); err != nil {
		return err
	}
	for _, s := range d.waits(b, n) {
		if !d.thrash {
			delete(d.away, s)
		}
	}
	return nil
}

// ReadAhead records the request; nothing comes in before a Fetch.
func (d *tertDev) ReadAhead(b addr.BlockNo) { d.ahead = append(d.ahead, d.amap.SegOf(b)) }

func (d *tertDev) ReadAgain(p *sim.Proc, parts []dev.Part) error {
	d.again++
	return d.ReadParts(p, parts)
}

func (d *tertDev) ReadBlocks(p *sim.Proc, b addr.BlockNo, buf []byte) error {
	return d.ReadParts(p, []dev.Part{{Blk: int64(b), Buf: buf}})
}

func (d *tertDev) ReadParts(p *sim.Proc, parts []dev.Part) error {
	b, n := addr.BlockNo(parts[0].Blk), 0
	for _, pt := range parts {
		n += len(pt.Buf) / BlockSize
	}
	for _, s := range d.waits(b, n) {
		d.held++
		p.Sleep(d.fetchTime)
		if !d.thrash {
			delete(d.away, s)
		}
	}
	for len(parts) > 0 { // segment by segment, as HighLight's block map reads
		b = addr.BlockNo(parts[0].Blk)
		seg, off := d.amap.SegOf(b), d.amap.OffOf(b)
		var chunk []dev.Part
		for span := d.amap.SegBlocks() - off; len(parts) > 0 && span > 0; span -= len(chunk[len(chunk)-1].Buf) / BlockSize {
			pt := parts[0]
			parts = parts[1:]
			if len(pt.Buf) > span*BlockSize { // the rest starts the next segment
				rest := pt
				rest.Blk, rest.Buf, rest.Lend = pt.Blk+int64(span), pt.Buf[span*BlockSize:], nil
				pt.Buf, pt.Lend = pt.Buf[:span*BlockSize], nil
				parts = append([]dev.Part{rest}, parts...)
			}
			chunk = append(chunk, pt)
		}
		if ln, ok := d.line[seg]; ok {
			seg = ln
		}
		for i := range chunk {
			chunk[i].Blk += int64(d.amap.BlockOf(seg, off)) - int64(b)
		}
		if err := d.DiskDevice.ReadParts(p, chunk); err != nil {
			return err
		}
	}
	return nil
}

// newTertEnv is newEnv over a tertDev with nothing away yet.
func newTertEnv(t *testing.T, segBlocks, diskSegs int, opts Options, devs ...addr.Geom) (*testEnv, *tertDev) {
	t.Helper()
	k := sim.NewKernel()
	amap := addr.New(segBlocks, diskSegs, devs...)
	disk := dev.NewDisk(k, dev.RZ57, int64(diskSegs*segBlocks), nil)
	td := &tertDev{DiskDevice: DiskDevice{disk}, amap: amap, away: map[addr.SegNo]bool{},
		line: map[addr.SegNo]addr.SegNo{}, fetchTime: sim.Time(time.Second)}
	env := &testEnv{k: k, disk: disk, amap: amap}
	k.RunProc(func(p *sim.Proc) {
		fs, err := Format(p, td, amap, opts)
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		env.fs = fs
	})
	return env, td
}

// sendAway flushes the file out of memory and marks every segment holding
// one of its blocks or its inode as away.
func sendAway(t *testing.T, p *sim.Proc, fs *FS, td *tertDev, f *File) {
	t.Helper()
	if err := fs.Sync(p); err != nil {
		t.Fatal(err)
	}
	refs, err := fs.FileBlockRefs(p, f.Inum())
	if err != nil {
		t.Fatal(err)
	}
	fs.DropFileBuffers(p, f.Inum())
	for _, r := range refs {
		td.away[td.amap.SegOf(r.Addr)] = true
	}
	td.away[td.amap.SegOf(fs.Imap(f.Inum()).Addr)] = true
}

// TestFaultingReadSideEffectsOnce: a ReadAt that gives up the lock to wait
// for its segments, more than once, has the side effects of a read that never
// waited: OnAccess once, Atime set once (when the read began), the user copy
// charged once, the same buffer-cache hit and miss counts, the same device
// reads, and read-ahead that still sees the sequential pattern.
func TestFaultingReadSideEffectsOnce(t *testing.T) {
	type outcome struct {
		stats         Stats
		elapsed       sim.Time
		atime         int64 // after the first read
		began         int64
		accesses      int
		firstAccesses int // OnAccess calls of the first read
		fetches, held int
		again         int   // reads of the first ReadAt issued through ReadAgain
		aheadReads    int64 // device reads of the second, sequential read
		aheadBytes    int64
		aheadFetches  int
	}
	run := func(fault bool) outcome {
		var o outcome
		e, td := newTertEnv(t, 32, 64, Options{MaxInodes: 64, UserCopyRate: 1 << 20})
		e.run(t, func(p *sim.Proc) {
			fs := e.fs
			data := pattern(3, 60*BlockSize) // two segments or three
			f := writeFile(t, p, fs, "/f", data)
			sendAway(t, p, fs, td, f)
			if len(td.away) < 2 {
				t.Fatalf("file occupies %d segments, want at least 2", len(td.away))
			}
			if !fault {
				clear(td.away)
			}
			fs.OnAccess = func(uint32, int32, int32, bool) { o.accesses++ }
			p.Sleep(time.Second) // so that Atime is distinguishable
			before := fs.Stats()
			o.began = int64(p.Now())
			got := make([]byte, 40*BlockSize)
			if _, err := f.ReadAt(p, got, 0); err != nil {
				t.Fatal(err)
			}
			o.elapsed = p.Now() - sim.Time(o.began)
			if !bytes.Equal(got, data[:len(got)]) {
				t.Fatal("read returned wrong bytes")
			}
			after := fs.Stats()
			o.stats = Stats{
				CacheHits: after.CacheHits - before.CacheHits, CacheMisses: after.CacheMisses - before.CacheMisses,
				DevReads: after.DevReads - before.DevReads, BytesRead: after.BytesRead - before.BytesRead,
			}
			o.atime, o.firstAccesses = fs.Imap(f.Inum()).Atime, o.accesses
			o.fetches, o.held, o.again = td.fetches, td.held, td.again

			// The next read continues where that one stopped, and faults
			// again: it is still recognised as sequential, so it still
			// reads ahead to a full cluster in one device read.
			fs.DropFileBuffers(p, f.Inum())
			if fault {
				td.away[td.amap.SegOf(fs.Imap(f.Inum()).Addr)] = true
			}
			before = fs.Stats()
			if _, err := f.ReadAt(p, got[:2*BlockSize], 40*BlockSize); err != nil {
				t.Fatal(err)
			}
			after = fs.Stats()
			// The inode block, the indirect block, and the cluster.
			o.aheadReads, o.aheadBytes = after.DevReads-before.DevReads, after.BytesRead-before.BytesRead
			o.aheadFetches = td.fetches - o.fetches
		})
		e.k.Stop()
		return o
	}
	plain, faulted := run(false), run(true)
	if plain.fetches != 0 || plain.held != 0 {
		t.Fatalf("control read waited: %+v", plain)
	}
	if faulted.fetches < 2 || faulted.held != 0 || faulted.again != faulted.fetches || plain.again != 0 {
		t.Fatalf("faulting read: %d unlocked and %d locked waits, %d reads issued again (control %d), want at least 2, 0, one per wait, 0",
			faulted.fetches, faulted.held, faulted.again, plain.again)
	}
	if faulted.firstAccesses != 1 || faulted.accesses != 2 || plain.accesses != 2 {
		t.Errorf("OnAccess called %d times by the faulting read and %d by both (control %d), want 1 and 2",
			faulted.firstAccesses, faulted.accesses, plain.accesses)
	}
	// Atime is set when the inode has been read and never again: an attempt
	// that set it after the last wait would leave a later time.
	if lastWait := faulted.began + int64(faulted.fetches)*int64(time.Second); faulted.atime >= lastWait {
		t.Errorf("Atime = %d, set again after the last wait ended at %d", faulted.atime, lastWait)
	}
	if faulted.stats != plain.stats {
		t.Errorf("counters of the faulting read %+v differ from the control's %+v", faulted.stats, plain.stats)
	}
	if want := plain.elapsed + sim.Time(faulted.fetches)*sim.Time(time.Second); faulted.elapsed != want {
		t.Errorf("faulting read took %v, want the control's %v plus %d fetches (user copy charged once)", faulted.elapsed, plain.elapsed, faulted.fetches)
	}
	if faulted.aheadFetches != 1 {
		t.Errorf("sequential follow-up read waited %d times, want 1", faulted.aheadFetches)
	}
	if faulted.aheadReads != plain.aheadReads || faulted.aheadBytes != plain.aheadBytes || plain.aheadBytes != (2+readCluster)*BlockSize {
		t.Errorf("follow-up read: %d device reads of %d bytes, control %d of %d, want inode, indirect block and one full cluster",
			faulted.aheadReads, faulted.aheadBytes, plain.aheadReads, plain.aheadBytes)
	}
}

// TestFaultingOpenChargesDirectoryReadsOnce: Open reads every directory on
// the path before it reaches the file's inode; when the inode's segment is
// away, the second attempt reads those directories again, from the buffer
// cache, and their user copies are not charged a second time.
func TestFaultingOpenChargesDirectoryReadsOnce(t *testing.T) {
	open := func(fault bool) (elapsed sim.Time, fetches int) {
		e, td := newTertEnv(t, 32, 64, Options{MaxInodes: 64, UserCopyRate: 1 << 10}) // 1 KB/s: a dirent costs ~10 ms
		e.run(t, func(p *sim.Proc) {
			fs := e.fs
			if err := fs.Mkdir(p, "/d"); err != nil {
				t.Fatal(err)
			}
			f := writeFile(t, p, fs, "/d/f", pattern(7, BlockSize))
			if err := fs.Sync(p); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.ReadDir(p, "/d"); err != nil { // directories cached, so only the inode waits
				t.Fatal(err)
			}
			fs.DropFileBuffers(p, f.Inum())
			if fault {
				td.away[td.amap.SegOf(fs.Imap(f.Inum()).Addr)] = true
			}
			t0 := p.Now()
			if _, err := fs.Open(p, "/d/f"); err != nil {
				t.Fatal(err)
			}
			elapsed, fetches = p.Now()-t0, td.fetches
		})
		e.k.Stop()
		return elapsed, fetches
	}
	plain, _ := open(false)
	faulted, fetches := open(true)
	if fetches != 1 {
		t.Fatalf("Open waited %d times, want 1", fetches)
	}
	if want := plain + sim.Time(time.Second); faulted != want {
		t.Fatalf("faulting Open took %v, want the control's %v plus one fetch", faulted, plain)
	}
}

// TestWriterOverwritesWhileReaderParked: the reader is waiting for its
// segment with the lock released when a writer replaces the block it is
// about to read. The reader runs again from the top, finds the writer's
// dirty buffer and returns the new bytes; the stale media copy is never
// inserted over it.
func TestWriterOverwritesWhileReaderParked(t *testing.T) {
	e, td := newTertEnv(t, 32, 64, Options{MaxInodes: 64})
	fs := e.fs
	old, fresh := pattern(4, 4*BlockSize), pattern(5, BlockSize)
	var f *File
	e.run(t, func(p *sim.Proc) {
		f = writeFile(t, p, fs, "/f", old)
		sendAway(t, p, fs, td, f)
	})
	var wrote sim.Time
	e.k.Go("reader", func(p *sim.Proc) {
		got := make([]byte, len(old))
		if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
			t.Errorf("read: %v", err)
		}
		if wrote == 0 || wrote >= p.Now() {
			t.Errorf("the writer ran at %v, not while the reader was parked (read over at %v)", wrote, p.Now())
		}
		want := append(append([]byte{}, old[:BlockSize]...), fresh...)
		want = append(want, old[2*BlockSize:]...)
		if !bytes.Equal(got, want) {
			t.Error("reader did not return the overwritten block's new bytes")
		}
	})
	e.k.Go("writer", func(p *sim.Proc) {
		p.Sleep(td.fetchTime / 2)
		if _, err := f.WriteAt(p, fresh, BlockSize); err != nil {
			t.Errorf("write: %v", err)
		}
		wrote = p.Now()
	})
	e.k.Run()
	if td.fetches == 0 {
		t.Fatal("reader never parked")
	}
	if len(fs.dirty) != 1 {
		t.Fatalf("%d dirty blocks after the read, want the writer's block still dirty", len(fs.dirty))
	}
	e.run(t, func(p *sim.Proc) {
		if err := fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, BlockSize)
		if _, err := f.ReadAt(p, got, BlockSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fresh) {
			t.Fatal("the overwrite did not reach the log")
		}
	})
	e.k.Stop()
}

// TestThrashFallsBackToHoldingTheLock: when a segment is gone again every
// time the reader comes back for it, the read gives the lock up maxRestarts
// times and then waits holding it, which completes. Operations that are
// not restartable (Walk runs a callback under the lock) wait holding the
// lock from the start.
func TestThrashFallsBackToHoldingTheLock(t *testing.T) {
	e, td := newTertEnv(t, 32, 64, Options{MaxInodes: 64})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		data := pattern(6, 3*BlockSize)
		f := writeFile(t, p, fs, "/f", data)
		sendAway(t, p, fs, td, f)
		td.thrash = true
		got := make([]byte, len(data))
		if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("thrashing read returned wrong bytes")
		}
		if td.fetches != maxRestarts || td.held == 0 {
			t.Fatalf("%d unlocked waits then %d locked, want %d then at least 1", td.fetches, td.held, maxRestarts)
		}

		td.thrash = false
		sendAway(t, p, fs, td, f)
		td.fetches, td.held = 0, 0
		if err := fs.Walk(p, "/", func(string, FileInfo) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if td.fetches != 0 || td.held == 0 {
			t.Fatalf("Walk: %d unlocked and %d locked waits, want 0 and at least 1", td.fetches, td.held)
		}
	})
	e.k.Stop()
}

// TestRestartedReadWhenTheGroundMoved: what a restarted attempt finds need
// not be what the attempt before it left. Its accounting does not lean on
// the first device read of the re-run being the read that faulted.
func TestRestartedReadWhenTheGroundMoved(t *testing.T) {
	const blocks = 40
	// The reader gets through the file's first segment and faults on its
	// last block's; meanwhile runs halfway through the wait. The result is
	// the buffer-cache hits the reader itself counted.
	parked := func(t *testing.T, meanwhile func(p *sim.Proc, fs *FS, td *tertDev, f *File)) (int64, *tertDev) {
		e, td := newTertEnv(t, 32, 64, Options{MaxInodes: 64})
		fs := e.fs
		data := pattern(8, blocks*BlockSize)
		var f *File
		var before int64
		e.run(t, func(p *sim.Proc) {
			f = writeFile(t, p, fs, "/f", data)
			sendAway(t, p, fs, td, f)
			clear(td.away)
			refs, err := fs.FileBlockRefs(p, f.Inum()) // leaves the inode in memory
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range refs {
				if r.Lbn == blocks-1 {
					td.away[td.amap.SegOf(r.Addr)] = true
				}
			}
			if len(td.away) != 1 || td.WouldWait(refs[0].Addr, 1) {
				t.Fatalf("want the last block's segment away and the first block's not: %v", td.away)
			}
			before = fs.Stats().CacheHits
		})
		var during int64 // hits meanwhile itself counted
		e.k.Go("reader", func(p *sim.Proc) {
			got := make([]byte, len(data))
			if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
				t.Errorf("read: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Error("read returned wrong bytes")
			}
		})
		e.k.Go("meanwhile", func(p *sim.Proc) {
			p.Sleep(td.fetchTime / 2)
			if td.fetches != 1 {
				t.Errorf("%d unlocked waits under way, want the reader parked on 1", td.fetches)
			}
			h0 := fs.Stats().CacheHits
			meanwhile(p, fs, td, f)
			during = fs.Stats().CacheHits - h0
		})
		e.k.Run()
		e.k.Stop()
		return fs.Stats().CacheHits - before - during, td
	}

	// Left alone the reader counts what a read that never waits counts
	// (TestFaultingReadSideEffectsOnce).
	control, _ := parked(t, func(*sim.Proc, *FS, *tertDev, *File) {})

	// Another reader brings every block into the buffer cache, so the re-run
	// needs no device read at all. The blocks the reader had got through
	// before it parked are not counted as hits a second time.
	t.Run("filled", func(t *testing.T) {
		hits, td := parked(t, func(p *sim.Proc, fs *FS, td *tertDev, f *File) {
			clear(td.away)
			if _, err := f.ReadAt(p, make([]byte, blocks*BlockSize), 0); err != nil && err != io.EOF {
				t.Errorf("second reader: %v", err)
			}
		})
		if td.fetches != 1 || td.again != 0 {
			t.Fatalf("%d unlocked waits and %d reads issued again, want 1 and 0", td.fetches, td.again)
		}
		if hits == 0 || hits > control {
			t.Fatalf("reader counted %d buffer-cache hits, want those before it parked and no more than the %d of an undisturbed read", hits, control)
		}
	})

	// Everything in memory is dropped: the re-run reads the inode and the
	// first segment's blocks again, reads in their own right; the read that
	// faulted comes after them and is still the one issued through ReadAgain.
	t.Run("evicted", func(t *testing.T) {
		hits, td := parked(t, func(p *sim.Proc, fs *FS, td *tertDev, f *File) {
			if err := fs.FlushCaches(p); err != nil {
				t.Errorf("FlushCaches: %v", err)
			}
		})
		if td.fetches != 1 || td.again != 1 || td.held != 0 {
			t.Fatalf("%d unlocked waits, %d reads issued again, %d locked waits, want 1, 1, 0", td.fetches, td.again, td.held)
		}
		if hits != control {
			t.Fatalf("reader counted %d buffer-cache hits, want the %d of an undisturbed read", hits, control)
		}
	})
}

// A traced request that queues for the file-system lock records who held it;
// one that finds the lock free, or carries no trace, records nothing.
func TestFSLockStageNamesTheHolder(t *testing.T) {
	env := newEnv(t, 64, 32, Options{})
	defer env.k.Stop()
	env.run(t, func(p *sim.Proc) {
		fs := env.fs
		writeFile(t, p, fs, "/f", pattern(1, 8*BlockSize))
		tracer := reqtrace.New(0, 0)
		stat := func(sp *sim.Proc, id int64) *reqtrace.Trace {
			tr := tracer.Start(id, "t", sp.Now(), 0)
			ctx := env.k.NewCtx(0)
			ctx.SetTrace(tr)
			defer sp.PushCtx(ctx)()
			if _, err := fs.Stat(sp, "/f"); err != nil {
				t.Error(err)
			}
			tracer.Seal(tr, sp.Now(), nil)
			return tr
		}
		if tr := stat(p, 1); len(tr.Stages) != 0 {
			t.Errorf("uncontended acquire recorded %+v", tr.Stages)
		}
		done := env.k.NewCond("done")
		var queued *reqtrace.Trace
		env.k.Go("holder", func(hp *sim.Proc) {
			fs.lock.Acquire(hp)
			hp.Sleep(5 * sim.Time(time.Millisecond))
			fs.lock.Release(hp)
		})
		env.k.Go("asker", func(ap *sim.Proc) {
			ap.Sleep(sim.Time(time.Millisecond))
			queued = stat(ap, 2)
			done.Broadcast()
		})
		done.Wait(p)
		if len(queued.Stages) != 1 || queued.Stages[0].Kind != reqtrace.KindFSLock || queued.Stages[0].Note != "held by holder" {
			t.Errorf("queued acquire recorded %+v, want one fs-lock stage held by holder", queued.Stages)
		}
		if err := queued.Validate(); err != nil {
			t.Error(err)
		}
	})
}
