package tertiary

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/obs"
	"repro/internal/sim"
)

const segBlocks = 16

type env struct {
	k    *sim.Kernel
	amap *addr.Map
	disk *dev.Disk
	juke *jukebox.Jukebox
	c    *cache.Cache
	svc  *Service

	bound, evicted, done int
}

func newEnv(t *testing.T, cacheLines int) *env {
	t.Helper()
	k := sim.NewKernel()
	amap := addr.New(segBlocks, 64, addr.Geom{Vols: 4, SegsPerVol: 16})
	disk := dev.NewDisk(k, dev.RZ57, int64(64*segBlocks), nil)
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 16, segBlocks*dev.BlockSize, nil)
	pool := make([]addr.SegNo, cacheLines)
	for i := range pool {
		pool[i] = addr.SegNo(40 + i)
	}
	e := &env{k: k, amap: amap, disk: disk, juke: juke}
	e.c = cache.New(cache.LRU, pool, 1)
	e.c.Bind = func(seg addr.SegNo, tag int, staging bool) {
		if tag < 0 {
			e.evicted++ // Evict, or Release of a line a failed fetch took
		} else {
			e.bound++
		}
	}
	e.svc = New(k, obs.New(k), amap, jukebox.AsLibraries([]jukebox.Footprint{juke}), disk, e.c)
	e.svc.OnCopiedOut = func(tag int) { e.done++ }
	return e
}

// seed writes recognizable data for tag directly onto the jukebox.
func (e *env) seed(t *testing.T, p *sim.Proc, tag int, fill byte) {
	t.Helper()
	seg := e.amap.SegForIndex(tag)
	d, v, s, ok := e.amap.Loc(seg)
	if !ok || d != 0 {
		t.Fatalf("bad loc for tag %d", tag)
	}
	buf := bytes.Repeat([]byte{fill}, segBlocks*dev.BlockSize)
	if err := e.juke.WriteSegment(p, v, s, buf); err != nil {
		t.Fatal(err)
	}
}

func TestDemandFetchPopulatesCache(t *testing.T) {
	e := newEnv(t, 4)
	e.k.RunProc(func(p *sim.Proc) {
		e.seed(t, p, 3, 0xAB)
		line, err := e.svc.DemandFetch(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		// The fetched copy must be on the cache-line disk segment.
		buf := make([]byte, dev.BlockSize)
		if err := e.disk.ReadBlocks(p, int64(e.amap.BlockOf(line.DiskSeg, 0)), buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0xAB {
			t.Fatalf("cache line holds %#x, want 0xAB", buf[0])
		}
		if e.bound != 1 {
			t.Fatalf("%d bindings to a tag, want 1", e.bound)
		}
		if e.svc.Stats().Fetches != 1 {
			t.Fatal("fetch not counted")
		}
	})
	e.k.Stop()
}

func TestConcurrentFetchesOfSameSegmentMerge(t *testing.T) {
	e := newEnv(t, 4)
	e.k.Go("seed", func(p *sim.Proc) {
		e.seed(t, p, 1, 0x11)
	})
	results := 0
	for i := 0; i < 3; i++ {
		e.k.Go("reader", func(p *sim.Proc) {
			p.Sleep(20 * time.Second) // after seeding
			if _, err := e.svc.DemandFetch(p, 1); err != nil {
				t.Error(err)
			}
			results++
		})
	}
	e.k.Run()
	if results != 3 {
		t.Fatalf("%d fetch waiters resolved, want 3", results)
	}
	if e.svc.Stats().Fetches != 1 {
		t.Fatalf("%d physical fetches, want 1 (merged)", e.svc.Stats().Fetches)
	}
	e.k.Stop()
}

func TestFetchEvictsLRUWhenFull(t *testing.T) {
	e := newEnv(t, 2)
	e.k.RunProc(func(p *sim.Proc) {
		for tag := 0; tag < 3; tag++ {
			e.seed(t, p, tag, byte(tag+1))
			if _, err := e.svc.DemandFetch(p, tag); err != nil {
				t.Fatal(err)
			}
		}
		if e.c.Len() != 2 {
			t.Fatalf("cache holds %d lines, want 2", e.c.Len())
		}
		if _, ok := e.c.Peek(0); ok {
			t.Fatal("LRU line 0 should have been evicted")
		}
		if e.evicted != 1 {
			t.Fatalf("%d unbindings, want 1", e.evicted)
		}
	})
	e.k.Stop()
}

func TestCopyoutWritesTertiary(t *testing.T) {
	e := newEnv(t, 4)
	e.k.RunProc(func(p *sim.Proc) {
		// Stage data on a cache line by hand.
		seg, _ := e.c.TakeFree()
		e.c.Insert(5, seg, true, p.Now())
		img := bytes.Repeat([]byte{0x77}, segBlocks*dev.BlockSize)
		if err := e.disk.WriteBlocks(p, int64(e.amap.BlockOf(seg, 0)), img); err != nil {
			t.Fatal(err)
		}
		e.svc.ScheduleCopyout(p, 5, seg)
		e.svc.DrainCopyouts(p)
		if e.done != 1 {
			t.Fatalf("OnCopiedOut fired %d times", e.done)
		}
		l, _ := e.c.Peek(5)
		if l.Staging {
			t.Fatal("line still staging after copyout")
		}
		// Verify the bits landed on the volume.
		tseg := e.amap.SegForIndex(5)
		_, v, s, _ := e.amap.Loc(tseg)
		got := make([]byte, segBlocks*dev.BlockSize)
		if err := e.juke.ReadSegment(p, v, s, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, img) {
			t.Fatal("copyout content mismatch")
		}
	})
	e.k.Stop()
}

func TestEOMRecordedAsFailure(t *testing.T) {
	e := newEnv(t, 4)
	e.juke.SetActualSegments(0, 0) // volume 0 cannot take anything
	e.k.RunProc(func(p *sim.Proc) {
		seg, _ := e.c.TakeFree()
		e.c.Insert(0, seg, true, p.Now()) // tag 0 = vol 0 seg 0
		e.svc.ScheduleCopyout(p, 0, seg)
		e.svc.DrainCopyouts(p)
		failed := e.svc.FailedCopyouts()
		if len(failed) != 1 || failed[0] != 0 {
			t.Fatalf("failed = %v, want [0]", failed)
		}
		if e.svc.Stats().EOMRetries != 1 {
			t.Fatal("EOM not counted")
		}
		// The line survives (it holds the sole copy).
		if _, ok := e.c.Peek(0); !ok {
			t.Fatal("staging line lost after EOM")
		}
	})
	e.k.Stop()
}

func TestEjectRejectsBusyLines(t *testing.T) {
	e := newEnv(t, 4)
	e.k.RunProc(func(p *sim.Proc) {
		seg, _ := e.c.TakeFree()
		l, _ := e.c.Insert(7, seg, true, p.Now())
		if err := e.svc.Eject(7); err == nil {
			t.Fatal("ejected a staging line")
		}
		l.Staging = false
		l.Pins = 1
		if err := e.svc.Eject(7); err == nil {
			t.Fatal("ejected a pinned line")
		}
		l.Pins = 0
		if err := e.svc.Eject(7); err != nil {
			t.Fatal(err)
		}
		if err := e.svc.Eject(7); err == nil {
			t.Fatal("double eject succeeded")
		}
	})
	e.k.Stop()
}

func TestPrefetchRunsInBackground(t *testing.T) {
	e := newEnv(t, 4)
	e.k.RunProc(func(p *sim.Proc) {
		for tag := 0; tag < 3; tag++ {
			e.seed(t, p, tag, byte(tag+1))
		}
		e.svc.Prefetch = func(tag int) []int {
			if tag == 0 {
				return []int{1, 2}
			}
			return nil
		}
		if _, err := e.svc.DemandFetch(p, 0); err != nil {
			t.Fatal(err)
		}
		p.Sleep(120 * time.Second)
		if e.c.Len() != 3 {
			t.Fatalf("prefetch left %d lines cached, want 3", e.c.Len())
		}
	})
	e.k.Stop()
}

// TestPrefetchHookAskedOnlyForWaitedFetches: the hook is asked after a fetch
// a reader waited for, not after one it started itself, so a hook naming
// tag+1 makes one background fetch per demand fetch instead of walking the
// whole store.
func TestPrefetchHookAskedOnlyForWaitedFetches(t *testing.T) {
	e := newEnv(t, 8)
	e.k.RunProc(func(p *sim.Proc) {
		const n = 6
		for tag := 0; tag < n; tag++ {
			e.seed(t, p, tag, byte(tag+1))
		}
		e.svc.Prefetch = func(tag int) []int {
			if tag+1 < n {
				return []int{tag + 1}
			}
			return nil
		}
		for i, tag := range []int{0, 3} {
			if _, err := e.svc.DemandFetch(p, tag); err != nil {
				t.Fatal(err)
			}
			p.Sleep(2 * time.Minute)
			if st, want := e.svc.Stats(), int64(i+1); st.Prefetches != want || st.Fetches != 2*want {
				t.Fatalf("after the demand fetch of %d: %d background fetches of %d, want %d of %d",
					tag, st.Prefetches, st.Fetches, want, 2*want)
			}
		}
		for tag := 0; tag < n; tag++ {
			if _, cached := e.c.Peek(tag); cached != (tag%3 < 2) {
				t.Errorf("segment %d cached %v", tag, cached)
			}
		}
	})
	e.k.Stop()
}

// TestFetchAheadNeverBlocks: with the service's request queue full,
// FetchAhead starts nothing and returns at once; the caller, which may hold
// the file system lock, never yields to another process.
func TestFetchAheadNeverBlocks(t *testing.T) {
	e := newEnv(t, 4)
	e.k.RunProc(func(p *sim.Proc) {
		ran := false
		e.k.Go("bystander", func(*sim.Proc) { ran = true })
		const queued = 256 // the capacity of the service's queue
		for tag := 0; tag < queued+8; tag++ {
			e.svc.FetchAhead(tag)
		}
		if ran {
			t.Fatal("FetchAhead yielded to another process")
		}
		if n := e.svc.Stats().Prefetches; n != queued {
			t.Fatalf("%d background fetches started, want %d (a full queue)", n, queued)
		}
		if _, waiting := e.svc.pending[queued]; waiting {
			t.Fatal("a fetch the full queue refused is pending")
		}
	})
	e.k.Stop()
}

func TestQueueTimeAccounted(t *testing.T) {
	e := newEnv(t, 4)
	e.k.RunProc(func(p *sim.Proc) {
		// Two back-to-back copyouts: the second queues behind the first.
		for tag := 0; tag < 2; tag++ {
			seg, _ := e.c.TakeFree()
			e.c.Insert(tag, seg, true, p.Now())
			e.svc.ScheduleCopyout(p, tag, seg)
		}
		e.svc.DrainCopyouts(p)
		if e.svc.Stats().Copyouts != 2 {
			t.Fatalf("copyouts = %d", e.svc.Stats().Copyouts)
		}
		if e.svc.obs.CatTotal("fp.write") == 0 || e.svc.obs.CatTotal("io.read") == 0 {
			t.Fatal("transfer times not accounted")
		}
	})
	e.k.Stop()
}

func TestStallNotification(t *testing.T) {
	e := newEnv(t, 4)
	type note struct {
		tag    int
		waited sim.Time
		done   bool
	}
	var notes []note
	e.svc.Notify = func(tag int, waited sim.Time, done bool) {
		notes = append(notes, note{tag, waited, done})
	}
	e.k.RunProc(func(p *sim.Proc) {
		e.seed(t, p, 2, 0x22)
		if _, err := e.svc.DemandFetch(p, 2); err != nil {
			t.Fatal(err)
		}
	})
	if len(notes) != 2 {
		t.Fatalf("got %d notifications, want hold-on + done", len(notes))
	}
	if notes[0].done || notes[0].tag != 2 {
		t.Fatalf("first note should be the hold-on message: %+v", notes[0])
	}
	if !notes[1].done || notes[1].waited <= 0 {
		t.Fatalf("second note should report the wait: %+v", notes[1])
	}
	e.k.Stop()
}

func TestTransientFaultRetriedAndRecovered(t *testing.T) {
	e := newEnv(t, 4)
	attempts := 0
	e.juke.Fault = func(op string, vol, seg int) error {
		if op == "read" {
			attempts++
			if attempts <= 2 {
				return dev.ErrTransientMedia
			}
		}
		return nil
	}
	e.k.RunProc(func(p *sim.Proc) {
		e.seed(t, p, 3, 0x5C)
		line, err := e.svc.DemandFetch(p, 3)
		if err != nil {
			t.Fatalf("transient fault not recovered: %v", err)
		}
		buf := make([]byte, dev.BlockSize)
		if err := e.disk.ReadBlocks(p, int64(e.amap.BlockOf(line.DiskSeg, 0)), buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0x5C {
			t.Fatal("recovered fetch delivered wrong bytes")
		}
	})
	s := e.svc.Stats()
	if s.TransientRetries != 2 {
		t.Fatalf("TransientRetries = %d, want 2", s.TransientRetries)
	}
	if s.RetriesExhausted != 0 || s.FetchFaults != 0 {
		t.Fatalf("recovered fault recorded as failure: %+v", s)
	}
	e.k.Stop()
}

func TestRetryBudgetExhausted(t *testing.T) {
	e := newEnv(t, 4)
	e.juke.Fault = func(op string, vol, seg int) error {
		if op == "read" {
			return dev.ErrTransientMedia
		}
		return nil
	}
	e.k.RunProc(func(p *sim.Proc) {
		t0 := p.Now()
		_, err := e.svc.DemandFetch(p, 2)
		// Six backoffs, doubling from 50 ms: 3.15 s of virtual time at least.
		if waited := p.Now() - t0; waited < 3150*sim.Time(time.Millisecond) {
			t.Fatalf("gave up after %v, before the six backoffs ran", time.Duration(waited))
		}
		if !errors.Is(err, ErrSegmentUnavailable) {
			t.Fatalf("exhausted retries = %v, want errors.Is ErrSegmentUnavailable", err)
		}
		if !errors.Is(err, dev.ErrTransientMedia) {
			t.Fatalf("cause not preserved in %v", err)
		}
		if e.c.FreeLines() != 4 {
			t.Fatalf("failed fetch leaked a cache line: %d free, want 4", e.c.FreeLines())
		}
	})
	s := e.svc.Stats()
	if s.RetriesExhausted != 1 {
		t.Fatalf("RetriesExhausted = %d, want 1", s.RetriesExhausted)
	}
	if s.TransientRetries != retryMax {
		t.Fatalf("TransientRetries = %d, want %d (the budget)", s.TransientRetries, retryMax)
	}
	if s.FetchFaults != 1 {
		t.Fatalf("FetchFaults = %d, want 1", s.FetchFaults)
	}
	e.k.Stop()
}

func TestPermanentWriteErrorBecomesFailedWrite(t *testing.T) {
	e := newEnv(t, 4)
	e.juke.Fault = func(op string, vol, seg int) error {
		if op == "write" {
			return dev.ErrPermanentMedia
		}
		return nil
	}
	e.k.RunProc(func(p *sim.Proc) {
		seg, _ := e.c.TakeFree()
		e.c.Insert(6, seg, true, p.Now())
		e.svc.ScheduleCopyout(p, 6, seg)
		e.svc.DrainCopyouts(p)
		if bad := e.svc.FailedWrites(); len(bad) != 1 || bad[0] != 6 {
			t.Fatalf("FailedWrites = %v, want [6]", bad)
		}
		if e.svc.FailedWrites() != nil {
			t.Fatal("FailedWrites did not clear")
		}
		// The staging line survives: it holds the sole copy.
		l, ok := e.c.Peek(6)
		if !ok || !l.Staging {
			t.Fatal("staging line lost after permanent write error")
		}
	})
	s := e.svc.Stats()
	if s.CopyoutFaults != 1 {
		t.Fatalf("CopyoutFaults = %d, want 1", s.CopyoutFaults)
	}
	if s.TransientRetries != 0 {
		t.Fatal("permanent error must not be retried")
	}
	if s.EOMRetries != 0 {
		t.Fatal("permanent error misfiled as end-of-medium")
	}
	e.k.Stop()
}

func TestUnmappableIndexReturnsError(t *testing.T) {
	e := newEnv(t, 4)
	e.k.RunProc(func(p *sim.Proc) {
		_, err := e.svc.DemandFetch(p, 9999)
		if !errors.Is(err, ErrSegmentUnavailable) {
			t.Fatalf("unmappable index = %v, want errors.Is ErrSegmentUnavailable (not a panic)", err)
		}
		if e.c.FreeLines() != 4 {
			t.Fatalf("cache pool leaked: %d free lines, want 4", e.c.FreeLines())
		}
		// The service loop is not wedged.
		e.seed(t, p, 1, 0x44)
		if _, err := e.svc.DemandFetch(p, 1); err != nil {
			t.Fatalf("service wedged after bad index: %v", err)
		}
	})
	e.k.Stop()
}

func TestReadFailsOverToReplica(t *testing.T) {
	e := newEnv(t, 4)
	// Tag 1 lives at vol 0 seg 1 (Geom{4,16}); tag 17 is its replica at
	// vol 1 seg 1. The primary's media is permanently bad.
	e.svc.AltCopies = func(tag int) []int {
		if tag == 1 {
			return []int{17}
		}
		return nil
	}
	e.juke.Fault = func(op string, vol, seg int) error {
		if op == "read" && vol == 0 && seg == 1 {
			return dev.ErrPermanentMedia
		}
		return nil
	}
	e.k.RunProc(func(p *sim.Proc) {
		e.seed(t, p, 17, 0x9D)
		line, err := e.svc.DemandFetch(p, 1)
		if err != nil {
			t.Fatalf("replica failover failed: %v", err)
		}
		buf := make([]byte, dev.BlockSize)
		if err := e.disk.ReadBlocks(p, int64(e.amap.BlockOf(line.DiskSeg, 0)), buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0x9D {
			t.Fatalf("failover delivered %#x, want the replica's 0x9D", buf[0])
		}
	})
	if e.svc.Stats().ReplicaRedirects != 1 {
		t.Fatalf("ReplicaRedirects = %d, want 1", e.svc.Stats().ReplicaRedirects)
	}
	e.k.Stop()
}

func TestFetchMediaFailurePropagates(t *testing.T) {
	e := newEnv(t, 4)
	mediaErr := errors.New("unreadable platter")
	e.juke.Fault = func(op string, vol, seg int) error {
		if op == "read" {
			return mediaErr
		}
		return nil
	}
	e.k.RunProc(func(p *sim.Proc) {
		_, err := e.svc.DemandFetch(p, 1)
		if err == nil {
			t.Fatal("media failure not propagated to the faulting reader")
		}
		// The failed fetch must not leak the cache line.
		if e.c.FreeLines() != 4 {
			t.Fatalf("cache pool leaked: %d free lines, want 4", e.c.FreeLines())
		}
		// A later fetch (fault cleared) succeeds.
		e.juke.Fault = nil
		e.seed(t, p, 1, 0x33)
		if _, err := e.svc.DemandFetch(p, 1); err != nil {
			t.Fatalf("fetch after fault cleared: %v", err)
		}
	})
	e.k.Stop()
}

// The service process resolves a copy-out's library before queueing it. A
// tag that does not map (a corrupted catalog) still reaches an I/O process
// and comes back as a failed write for the migrator, never an index panic.
func TestUnmappableCopyoutBecomesFailedWrite(t *testing.T) {
	e := newEnv(t, 4)
	e.k.RunProc(func(p *sim.Proc) {
		seg, _ := e.c.TakeFree()
		e.c.Insert(6, seg, true, p.Now())
		for _, bad := range []int{9999, -1} {
			e.svc.ScheduleCopyouts(p, seg, nil, 6, bad)
			e.svc.DrainCopyouts(p)
			if got := e.svc.FailedWrites(); len(got) != 1 || got[0] != bad {
				t.Fatalf("FailedWrites = %v, want [%d]", got, bad)
			}
		}
		if l, ok := e.c.Peek(6); !ok || !l.Staging || l.Pins != 0 {
			t.Fatalf("staging line after the failed copy-outs: %+v", l)
		}
		if e.svc.Outstanding(0) != 0 {
			t.Fatalf("%d transfers still outstanding", e.svc.Outstanding(0))
		}
		// The service loop is not wedged.
		e.svc.ScheduleCopyout(p, 6, seg)
		e.svc.DrainCopyouts(p)
		if e.done != 1 {
			t.Fatalf("OnCopiedOut fired %d times after the bad tags, want 1", e.done)
		}
	})
	if s := e.svc.Stats(); s.CopyoutFaults != 2 || s.EOMRetries != 0 {
		t.Fatalf("stats %+v, want 2 copy-out faults", s)
	}
	e.k.Stop()
}

// A fetch whose every copy sits in a down library is still routed, tried and
// resolved: the reader gets ErrSegmentUnavailable and the line goes back.
func TestFetchWithEveryLibraryDown(t *testing.T) {
	e := newLibEnv(2, 1, 4)
	e.k.RunProc(func(p *sim.Proc) {
		e.seed(t, p, 3)
		e.libs[0].lib.SetDown(true)
		e.libs[1].lib.SetDown(true)
		_, err := e.svc.DemandFetch(p, 3)
		if !errors.Is(err, ErrSegmentUnavailable) || !errors.Is(err, jukebox.ErrLibraryOffline) {
			t.Fatalf("fetch with both libraries down = %v, want ErrSegmentUnavailable wrapping ErrLibraryOffline", err)
		}
		if e.c.FreeLines() != 4 || e.svc.Outstanding(0)+e.svc.Outstanding(1) != 0 {
			t.Fatalf("leaked: %d free lines of 4, %d/%d outstanding", e.c.FreeLines(), e.svc.Outstanding(0), e.svc.Outstanding(1))
		}
		e.libs[1].lib.SetDown(false)
		e.fetchAll(t, p, []int{3}, nil)
	})
	if len(e.libs[0].reads) != 0 || len(e.libs[1].reads) != 1 {
		t.Fatalf("after library 1 came back it should have served the read:\n%v", e.log)
	}
	e.k.Stop()
}
