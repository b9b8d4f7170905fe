package tertiary

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/obs"
	"repro/internal/sim"
)

// recLib is the changer inside a library: it logs which process started which
// transfer when and counts the transfers it has in flight. A down library
// refuses a transfer before it gets here.
type recLib struct {
	*jukebox.Jukebox
	lib             *jukebox.Library
	log             *[]string
	inflight, worst int
	reads           map[int]int   // successful reads, by volume segment
	wrote           [][2]sim.Time // start and end of each medium write, in order of completion
}

func (r *recLib) LendSegment(p *sim.Proc, vol, seg int) ([]byte, error) {
	*r.log = append(*r.log, fmt.Sprintf("%s %d read lib%d vol%d seg%d", p.Name(), p.Now(), r.lib.ID(), vol, seg))
	r.inflight++
	r.worst = max(r.worst, r.inflight)
	img, err := r.Jukebox.LendSegment(p, vol, seg)
	r.inflight--
	if err == nil {
		r.reads[vol*100+seg]++
	}
	return img, err
}

func (r *recLib) WriteSegment(p *sim.Proc, vol, seg int, buf []byte) error {
	*r.log = append(*r.log, fmt.Sprintf("%s %d write lib%d vol%d seg%d", p.Name(), p.Now(), r.lib.ID(), vol, seg))
	return r.Jukebox.WriteSegment(p, vol, seg, buf)
}

func (r *recLib) AdoptSegment(p *sim.Proc, vol, seg int, buf []byte) error {
	t0 := p.Now()
	*r.log = append(*r.log, fmt.Sprintf("%s %d write lib%d vol%d seg%d", p.Name(), t0, r.lib.ID(), vol, seg))
	err := r.Jukebox.AdoptSegment(p, vol, seg, buf)
	r.wrote = append(r.wrote, [2]sim.Time{t0, p.Now()})
	return err
}

// recDisk logs when each cache-line write of the I/O processes began and
// ended, whether it copies (WriteBlocks) or adopts (AdoptBlocks).
type recDisk struct {
	*dev.Disk
	writes *[][2]sim.Time
}

func (d recDisk) WriteBlocks(p *sim.Proc, blk int64, buf []byte) error {
	t0 := p.Now()
	err := d.Disk.WriteBlocks(p, blk, buf)
	*d.writes = append(*d.writes, [2]sim.Time{t0, p.Now()})
	return err
}

func (d recDisk) AdoptBlocks(p *sim.Proc, blk int64, buf []byte) error {
	t0 := p.Now()
	err := d.Disk.AdoptBlocks(p, blk, buf)
	*d.writes = append(*d.writes, [2]sim.Time{t0, p.Now()})
	return err
}

// libEnv is a service over nlibs two-drive changers of 4 volumes x 16
// segments each: tag t lives in library t/64, and t+64 is its replica.
type libEnv struct {
	k    *sim.Kernel
	amap *addr.Map
	disk *dev.Disk
	libs []*recLib
	c    *cache.Cache
	svc  *Service
	log  []string

	lineWrites [][2]sim.Time // start and end of each, in order of completion
}

const libSegs = 64

func newLibEnv(nlibs, streams, cacheLines int) *libEnv {
	e := &libEnv{k: sim.NewKernel()}
	var geoms []addr.Geom
	var libs []*jukebox.Library
	for i := 0; i < nlibs; i++ {
		j := jukebox.MustNew(e.k, jukebox.MO6300, 2, 4, 16, segBlocks*dev.BlockSize, nil)
		r := &recLib{Jukebox: j, log: &e.log, reads: map[int]int{}}
		r.lib = jukebox.NewLibrary(i, "", r)
		e.libs = append(e.libs, r)
		libs = append(libs, r.lib)
		geoms = append(geoms, addr.Geom{Vols: 4, SegsPerVol: 16})
	}
	e.amap = addr.New(segBlocks, 64, geoms...)
	e.disk = dev.NewDisk(e.k, dev.RZ57, int64(64*segBlocks), nil)
	pool := make([]addr.SegNo, cacheLines)
	for i := range pool {
		pool[i] = addr.SegNo(40 + i)
	}
	e.c = cache.New(cache.LRU, pool, 1)
	e.svc = New(e.k, obs.New(e.k), e.amap, libs, recDisk{e.disk, &e.lineWrites}, e.c)
	e.svc.AddIOStreams(streams - 1)
	if nlibs > 1 {
		e.svc.AltCopies = func(tag int) []int { return []int{tag + libSegs} }
	}
	return e
}

func fill(tag int) []byte { return bytes.Repeat([]byte{byte(tag + 1)}, segBlocks*dev.BlockSize) }

// seed writes tag's pattern to its primary location and to its replica, which
// leaves the volumes written last in the drives.
func (e *libEnv) seed(t *testing.T, p *sim.Proc, tags ...int) {
	t.Helper()
	for _, tag := range tags {
		for c := tag; c < len(e.libs)*libSegs; c += libSegs {
			d, v, s, _ := e.amap.Loc(e.amap.SegForIndex(c))
			if err := e.libs[d].Jukebox.WriteSegment(p, v, s, fill(tag)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// stage puts tag's pattern in a free cache line, registered as its staging
// line, and returns the line.
func (e *libEnv) stage(t *testing.T, p *sim.Proc, tag int) addr.SegNo {
	t.Helper()
	seg, _ := e.c.TakeFree()
	e.c.Insert(tag, seg, true, p.Now())
	if err := e.disk.WriteBlocks(p, int64(e.amap.BlockOf(seg, 0)), fill(tag)); err != nil {
		t.Fatal(err)
	}
	return seg
}

// copyout stages tag's pattern in a cache line and schedules its copy-out.
func (e *libEnv) copyout(t *testing.T, p *sim.Proc, tag int) {
	t.Helper()
	e.svc.ScheduleCopyout(p, tag, e.stage(t, p, tag))
}

// fetchAll demand-fetches tags from one process each, started together, and
// checks what landed in the cache.
func (e *libEnv) fetchAll(t *testing.T, p *sim.Proc, tags []int, trs []*obs.Trace) {
	t.Helper()
	done := e.k.NewCond("fetched")
	left := len(tags)
	for i, tag := range tags {
		e.k.Go(fmt.Sprintf("reader-%d", tag), func(rp *sim.Proc) {
			defer func() { left--; done.Broadcast() }()
			if trs != nil {
				ctx := e.k.NewCtx(0)
				ctx.SetTrace(trs[i])
				defer rp.PushCtx(ctx)()
			}
			line, err := e.svc.DemandFetch(rp, tag)
			if err != nil {
				t.Errorf("fetch of %d: %v", tag, err)
				return
			}
			got := make([]byte, segBlocks*dev.BlockSize)
			if err := e.disk.ReadBlocks(rp, int64(e.amap.BlockOf(line.DiskSeg, 0)), got); err != nil {
				t.Error(err)
			} else if !bytes.Equal(got, fill(tag)) {
				t.Errorf("fetch of %d delivered %#x..., want %#x", tag, got[0], byte(tag+1))
			}
		})
	}
	for left > 0 {
		done.Wait(p)
	}
}

// (a) Both copies mounted and four fetches at once: the router spreads them
// by what it has outstanding at each library, and a library never runs more
// transfers than it has I/O processes.
func TestConcurrentFetchesUseBothLibraries(t *testing.T) {
	const streams = 2
	e := newLibEnv(2, streams, 8)
	e.k.RunProc(func(p *sim.Proc) {
		tags := []int{0, 1, 2, 3} // volume 0 of either library
		e.seed(t, p, tags...)
		e.log = nil
		e.fetchAll(t, p, tags, nil)
		for i, l := range e.libs {
			if n := len(l.reads); n != 2 {
				t.Errorf("library %d served %d of 4 concurrent fetches, want 2:\n%v", i, n, e.log)
			}
			if l.worst > streams {
				t.Errorf("library %d had %d transfers in flight with %d I/O processes", i, l.worst, streams)
			}
			if got := e.svc.Outstanding(i); got != 0 {
				t.Errorf("library %d: %d transfers outstanding after all completed", i, got)
			}
		}
	})
	if got := e.svc.Stats().ReplicaRedirects; got != 2 {
		t.Errorf("ReplicaRedirects = %d, want 2", got)
	}
	e.k.Stop()
}

// The third fetch routed to a library with two I/O processes waits in that
// library's queue: an io-queue stage inside the fetch-wait that takes the
// critical path for as long as it lasts, with the sum invariant intact.
func TestIOQueueStageNamesTheWait(t *testing.T) {
	e := newLibEnv(2, 2, 8)
	tracer := obs.NewTracer()
	trs := make([]*obs.Trace, 6)
	e.k.RunProc(func(p *sim.Proc) {
		tags := []int{0, 1, 2, 3, 4, 5}
		e.seed(t, p, tags...)
		for i := range trs {
			trs[i] = tracer.Start(int64(i), "t", p.Now(), 0)
		}
		e.fetchAll(t, p, tags, trs)
		for _, tr := range trs {
			tracer.Seal(tr, p.Now(), nil)
		}
	})
	queued := 0
	for i, tr := range trs {
		if err := tr.Validate(); err != nil {
			t.Error(err)
		}
		var fw, q *obs.Stage
		for j := range tr.Stages {
			switch s := &tr.Stages[j]; s.Kind {
			case obs.KindFetchWait:
				fw = s
			case obs.KindIOQueue:
				q = s
			}
		}
		if i < 4 {
			if q != nil {
				t.Errorf("request %d found an idle I/O process, yet records %+v", i, *q)
			}
			continue
		}
		if q == nil || fw == nil {
			t.Fatalf("request %d waited for an I/O process: stages %+v", i, tr.Stages)
		}
		queued++
		if q.Start < fw.Start || q.End > fw.End || q.End <= q.Start {
			t.Errorf("io-queue %v-%v not a real interval inside fetch-wait %v-%v", q.Start, q.End, fw.Start, fw.End)
		}
		if want := fmt.Sprintf("lib %d depth 2", i%2); q.Note() != want {
			t.Errorf("request %d io-queue note %q, want %q", i, q.Note(), want)
		}
		if got := tr.Breakdown()[obs.KindIOQueue]; got != q.End-q.Start {
			t.Errorf("request %d: io-queue holds %v of the critical path, stage lasted %v", i, got, q.End-q.Start)
		}
	}
	if queued != 2 {
		t.Errorf("%d requests recorded an io-queue stage, want 2", queued)
	}
	e.k.Stop()
}

// (b) A library goes down with fetches waiting in its queue: its I/O process
// fails each over to the other library's copy. None is lost, none is read
// twice.
func TestQueuedFetchesSurviveLibraryOutage(t *testing.T) {
	e := newLibEnv(2, 1, 8)
	e.k.RunProc(func(p *sim.Proc) {
		tags := []int{0, 1, 2, 3, 4, 5}
		e.seed(t, p, tags...)
		e.k.Go("outage", func(op *sim.Proc) {
			op.Sleep(10 * time.Millisecond) // all six dispatched, the first two being read
			if e.svc.Outstanding(0) != 3 || e.svc.Outstanding(1) != 3 {
				t.Errorf("outstanding %d/%d before the outage, want 3/3", e.svc.Outstanding(0), e.svc.Outstanding(1))
			}
			e.libs[0].lib.SetDown(true)
		})
		e.fetchAll(t, p, tags, nil)
	})
	if got := e.svc.Stats().Fetches; got != 6 {
		t.Errorf("Fetches = %d, want 6", got)
	}
	// Library 0 finished the read it had begun; library 1 served the rest.
	if n := len(e.libs[0].reads); n != 1 {
		t.Errorf("library 0 served %d segments, want only the one in flight at the outage", n)
	}
	served := map[int]int{}
	for _, l := range e.libs {
		for seg, n := range l.reads {
			served[seg] += n
		}
	}
	for seg := 0; seg < 6; seg++ {
		if served[seg] != 1 {
			t.Errorf("segment %d read %d times, want once:\n%v", seg, served[seg], e.log)
		}
	}
	if e.svc.Outstanding(0) != 0 || e.svc.Outstanding(1) != 0 {
		t.Errorf("outstanding %d/%d after the run", e.svc.Outstanding(0), e.svc.Outstanding(1))
	}
	e.k.Stop()
}

// (c) One library is one queue and its own processes: which process starts
// which transfer at which instant, over a run of copy-outs with demand fetches
// arriving among them. Recorded at PR 18's parent (two shared I/O processes,
// routing in the I/O process) and again with this test's body when a fetch's
// cache-line write stopped holding its drive token: the transfer queued behind
// a fetch now starts when the fetch's media read ends (the first copy-out 40 ms
// earlier), in the stream's other process; and a third time when a fetch began
// to take its cache line at arrival: the two early fetches get their disk
// segments after copy-outs 32 and 33 took theirs, not between them, the arm's
// seeks between line writes and copy-out reads change, and everything after the
// first two reads starts 8.9 to 9.5 ms later; and a fourth time when a copy-out
// stopped holding a drive token through its line read: copy-outs 32 and 33 read
// their lines while the two early fetches hold both tokens, so everything after
// those two reads starts 94 to 165 ms earlier, and a transfer runs in the
// process that took it off the queue, which is not always the parent's. The
// order of the transfers is the parent's.
func TestOneLibraryKeepsItsSchedule(t *testing.T) {
	e := newLibEnv(1, 2, 8)
	e.k.RunProc(func(p *sim.Proc) {
		e.seed(t, p, 0, 1, 16, 17, 18)
		e.log = nil
		copyout := func(tag int) { e.copyout(t, p, tag) } // to volume 2
		e.k.Go("early", func(rp *sim.Proc) { e.fetchAll(t, rp, []int{16, 0}, nil) })
		copyout(32)
		copyout(33)
		p.Sleep(700 * time.Millisecond)
		copyout(34)
		e.fetchAll(t, p, []int{17, 1, 18}, nil)
		copyout(35)
		e.svc.DrainCopyouts(p)
	})
	if !slices.Equal(e.log, parentSchedule) {
		t.Errorf("schedule differs from the parent's:\n got %q\nwant %q", e.log, parentSchedule)
	}
	e.k.Stop()
}

// "process, ns, transfer".
var parentSchedule = []string{
	"hl-io 28348372090 read lib0 vol1 seg0",
	"hl-io-1 28348372090 read lib0 vol0 seg0",
	"hl-iob 28525728425 write lib0 vol2 seg0",
	"hl-io-1b 28551526984 write lib0 vol2 seg1",
	"hl-io-1 42235402843 write lib0 vol2 seg2",
	"hl-io 42545077261 read lib0 vol1 seg1",
	"hl-iob 42681833596 read lib0 vol0 seg1",
	"hl-io-1b 42854751679 read lib0 vol1 seg2",
	"hl-io 70043917779 write lib0 vol2 seg3",
}

// (d) Within a rank the router goes by drive: a copy whose volume has media
// time queued or in flight loses to one whose drive is idle, whatever the
// libraries' totals; with both volumes idle, the library with less to do for
// its other volumes; with both libraries idle the primary wins.
func TestRouteAroundTheBusyDrive(t *testing.T) {
	e := newLibEnv(2, 2, 8)
	e.k.RunProc(func(p *sim.Proc) {
		e.seed(t, p, 0, 1, 2, 16) // volumes 0 and 1 of both libraries end up in their drives
		if got := e.svc.readOrder(0); !slices.Equal(got, []int{0, libSegs}) {
			t.Errorf("both drives idle: order %v, want the primary first", got)
		}
		// One copy-out each, so the libraries' totals tie: to the primary's
		// volume in library 0, to the other volume in library 1.
		e.copyout(t, p, 5)
		e.copyout(t, p, libSegs+21)
		e.fetchAll(t, p, []int{0}, nil)
		if len(e.libs[0].reads) != 0 || e.libs[1].reads[0] != 1 {
			t.Errorf("the read waited behind the copy-out on the primary's drive:\n%v", e.log)
		}
		e.svc.DrainCopyouts(p)
		if len(e.svc.busy) != 0 || e.svc.Outstanding(0) != 0 || e.svc.Outstanding(1) != 0 {
			t.Errorf("at rest: busy %v, outstanding %d/%d", e.svc.busy, e.svc.Outstanding(0), e.svc.Outstanding(1))
		}
		e.fetchAll(t, p, []int{1}, nil)
		if e.libs[0].reads[1] != 1 {
			t.Errorf("both drives idle again, yet the replica served:\n%v", e.log)
		}
		// A copy-out to library 0's other volume: neither copy's own volume
		// has anything queued, and the library's count decides.
		e.copyout(t, p, 21)
		e.fetchAll(t, p, []int{2}, nil)
		if e.libs[1].reads[2] != 1 {
			t.Errorf("the read went to the library with a copy-out outstanding:\n%v", e.log)
		}
		e.svc.DrainCopyouts(p)
	})
	e.k.Stop()
}

// (e) With one I/O stream and two fetches queued, the second segment comes
// off its medium while the first is written to its cache line, and a waiter
// still wakes only once its line is written.
func TestLineWriteOverlapsNextMediaRead(t *testing.T) {
	e := newLibEnv(1, 1, 8)
	e.k.RunProc(func(p *sim.Proc) {
		e.seed(t, p, 0, 1)
		e.log = nil
		var woke [2]sim.Time
		left := 2
		done := e.k.NewCond("fetched")
		for i := range woke {
			e.k.Go(fmt.Sprintf("reader-%d", i), func(rp *sim.Proc) {
				defer func() { left--; done.Broadcast() }()
				if _, err := e.svc.DemandFetch(rp, i); err != nil {
					t.Error(err)
				}
				woke[i] = rp.Now()
			})
		}
		for left > 0 {
			done.Wait(p)
		}
		if len(e.log) != 2 || len(e.lineWrites) != 2 {
			t.Fatalf("transfers: %v, line writes %v", e.log, e.lineWrites)
		}
		var read1 sim.Time
		fmt.Sscanf(e.log[1], "%s %d", new(string), &read1)
		if w0 := e.lineWrites[0]; read1 != w0[0] || w0[1] <= w0[0] {
			t.Errorf("second media read began at %d, first line write ran %d-%d: want them to start together", read1, w0[0], w0[1])
		}
		for i, w := range e.lineWrites {
			if woke[i] < w[1] {
				t.Errorf("waiter %d woke at %d, before its line write ended at %d", i, woke[i], w[1])
			}
		}
	})
	e.k.Stop()
}

// (f) With one I/O stream and two copy-outs queued, the second copy-out reads
// its line off the disk while the first one's image is written to its medium:
// a drive token is held only across the media transfer.
func TestCopyoutReadOverlapsMediaWrite(t *testing.T) {
	e := newLibEnv(1, 1, 8)
	d := &hookDisk{recDisk: recDisk{e.disk, &e.lineWrites}}
	e.svc.disk = d
	e.k.RunProc(func(p *sim.Proc) {
		e.copyout(t, p, 5)
		e.copyout(t, p, 6)
		e.svc.DrainCopyouts(p)
	})
	w := e.libs[0].wrote
	if len(d.reads) != 2 || len(w) != 2 {
		t.Fatalf("line reads %v, medium writes %v: want two of each", d.reads, w)
	}
	if read2, write1 := d.reads[1], w[0]; read2[1] >= write1[1] || read2[0] >= write1[0] {
		t.Errorf("second line read ran %d-%d, first medium write %d-%d: want the read to end inside the write", read2[0], read2[1], write1[0], write1[1])
	}
	e.k.Stop()
}

// (g) Copy-outs reach their media in the order they left the library's queue,
// not in the order their line reads end: the first read is held back a second,
// and the second copy-out still waits for the first one's medium write. So a
// later copy-out of a tag staged again lands last.
func TestCopyoutsReachMediaInQueueOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		tags [2]int
	}{{"two tags", [2]int{5, 6}}, {"one tag", [2]int{5, 5}}} {
		t.Run(tc.name, func(t *testing.T) {
			e := newLibEnv(1, 1, 8)
			d := &hookDisk{recDisk: recDisk{e.disk, &e.lineWrites}, at: 1, before: func(p *sim.Proc) { p.Sleep(time.Second) }}
			e.svc.disk = d
			e.k.RunProc(func(p *sim.Proc) {
				for i, tag := range tc.tags {
					// Lines staged by hand, with bytes of their own and no
					// cache registration, so one tag can be staged twice.
					seg, _ := e.c.TakeFree()
					if err := e.disk.WriteBlocks(p, int64(e.amap.BlockOf(seg, 0)), fill(10*i+tag)); err != nil {
						t.Fatal(err)
					}
					e.svc.ScheduleCopyouts(p, seg, nil, -1, tag)
				}
				e.svc.DrainCopyouts(p)
				if len(d.reads) != 2 || d.reads[1][1] >= d.reads[0][1] {
					t.Fatalf("line reads %v: the second did not end first", d.reads)
				}
				if got := e.medium(t, p, tc.tags[1]); !bytes.Equal(got, fill(10+tc.tags[1])) {
					t.Errorf("medium of tag %d holds %#x..., want the second copy-out's %#x", tc.tags[1], got[0], byte(10+tc.tags[1]+1))
				}
			})
			want := []string{"write lib0 vol0 seg5", "write lib0 vol0 seg" + fmt.Sprint(tc.tags[1])}
			if len(e.log) != 2 || !strings.HasSuffix(e.log[0], want[0]) || !strings.HasSuffix(e.log[1], want[1]) {
				t.Errorf("medium writes %q, want %q in this order", e.log, want)
			}
			e.k.Stop()
		})
	}
}

// A line write that fails after the drive has moved on is still the fetch's
// error, and the line goes back to the pool.
func TestFailedLineWriteSurfacesAndReleasesTheLine(t *testing.T) {
	e := newLibEnv(1, 1, 8)
	e.k.RunProc(func(p *sim.Proc) {
		e.seed(t, p, 0)
		e.disk.Fault = func(op string, _ int64) error {
			if op == "write" {
				return dev.ErrPermanentMedia
			}
			return nil
		}
		if _, err := e.svc.DemandFetch(p, 0); !errors.Is(err, ErrSegmentUnavailable) || !errors.Is(err, dev.ErrPermanentMedia) {
			t.Errorf("fetch with an unwritable line: %v", err)
		}
		if e.c.FreeLines() != 8 || e.svc.Outstanding(0) != 0 {
			t.Errorf("%d of 8 lines free, %d outstanding", e.c.FreeLines(), e.svc.Outstanding(0))
		}
		e.disk.Fault = nil
		e.fetchAll(t, p, []int{0}, nil)
	})
	e.k.Stop()
}
