package tertiary

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
	"repro/internal/sim"
)

// recLib is a library that logs which process started which transfer when
// and counts the transfers it has in flight.
type recLib struct {
	*jukebox.Library
	log             *[]string
	inflight, worst int
	reads           map[int]int // successful reads, by volume segment
}

func (r *recLib) ReadSegment(p *sim.Proc, vol, seg int, buf []byte) error {
	*r.log = append(*r.log, fmt.Sprintf("%s %d read lib%d vol%d seg%d", p.Name(), p.Now(), r.ID(), vol, seg))
	r.inflight++
	r.worst = max(r.worst, r.inflight)
	err := r.Library.ReadSegment(p, vol, seg, buf)
	r.inflight--
	if err == nil {
		r.reads[vol*100+seg]++
	}
	return err
}

func (r *recLib) WriteSegment(p *sim.Proc, vol, seg int, buf []byte) error {
	*r.log = append(*r.log, fmt.Sprintf("%s %d write lib%d vol%d seg%d", p.Name(), p.Now(), r.ID(), vol, seg))
	return r.Library.WriteSegment(p, vol, seg, buf)
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
}

const libSegs = 64

func newLibEnv(nlibs, streams, cacheLines int) *libEnv {
	e := &libEnv{k: sim.NewKernel()}
	var geoms []addr.Geom
	var fps []jukebox.Footprint
	for i := 0; i < nlibs; i++ {
		j := jukebox.MustNew(e.k, jukebox.MO6300, 2, 4, 16, segBlocks*dev.BlockSize, nil)
		l := &recLib{Library: jukebox.NewLibrary(i, "", j), log: &e.log, reads: map[int]int{}}
		e.libs = append(e.libs, l)
		fps = append(fps, l)
		geoms = append(geoms, addr.Geom{Vols: 4, SegsPerVol: 16})
	}
	e.amap = addr.New(segBlocks, 64, geoms...)
	e.disk = dev.NewDisk(e.k, dev.RZ57, int64(64*segBlocks), nil)
	pool := make([]addr.SegNo, cacheLines)
	for i := range pool {
		pool[i] = addr.SegNo(40 + i)
	}
	e.c = cache.New(cache.LRU, pool, 1)
	e.svc = New(e.k, obs.New(e.k), e.amap, fps, e.disk, e.c, Hooks{})
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
			if err := e.libs[d].Library.WriteSegment(p, v, s, fill(tag)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// fetchAll demand-fetches tags from one process each, started together, and
// checks what landed in the cache.
func (e *libEnv) fetchAll(t *testing.T, p *sim.Proc, tags []int, trs []*reqtrace.Trace) {
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
	tracer := reqtrace.New(0, 0)
	trs := make([]*reqtrace.Trace, 6)
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
		var fw, q *reqtrace.Stage
		for j := range tr.Stages {
			switch s := &tr.Stages[j]; s.Kind {
			case reqtrace.KindFetchWait:
				fw = s
			case reqtrace.KindIOQueue:
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
		if want := fmt.Sprintf("lib %d depth 2", i%2); q.Note != want {
			t.Errorf("request %d io-queue note %q, want %q", i, q.Note, want)
		}
		if got := tr.Breakdown()[reqtrace.KindIOQueue]; got != q.End-q.Start {
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
			e.libs[0].SetDown(true)
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

// probeGate is a breaker that is half open for library 0: Allow grants one
// probe and refuses until the probe's result is in.
type probeGate struct {
	asked  [2]int
	tokens int
}

func (g *probeGate) Allow(lib int) bool {
	g.asked[lib]++
	if lib != 0 {
		return true
	}
	g.tokens--
	return g.tokens >= 0
}

func (g *probeGate) OnResult(lib int, err error) {}

// (c) Routing moved from the I/O process to dispatch; it must not happen at
// both. One fetch asks the breaker once per library, and the half-open
// library's single probe token buys it the read.
func TestBreakerAskedOncePerFetch(t *testing.T) {
	e := newLibEnv(2, 1, 8)
	g := &probeGate{tokens: 1}
	e.svc.Breaker = g
	e.k.RunProc(func(p *sim.Proc) {
		e.seed(t, p, 0)
		e.log = nil
		e.fetchAll(t, p, []int{0}, nil)
	})
	if g.asked != [2]int{1, 1} {
		t.Errorf("Allow called %v times for libraries 0 and 1, want once each", g.asked)
	}
	if len(e.libs[0].reads) != 1 || len(e.libs[1].reads) != 0 {
		t.Errorf("the probe's token did not route the read to library 0:\n%v", e.log)
	}
	e.k.Stop()
}

// (d) One library is one queue and the processes it always had: which process
// starts which transfer at which instant, over a run of copy-outs with demand
// fetches arriving among them, is the schedule recorded at the parent commit
// (two shared I/O processes, routing in the I/O process).
func TestOneLibraryKeepsItsSchedule(t *testing.T) {
	e := newLibEnv(1, 2, 8)
	e.k.RunProc(func(p *sim.Proc) {
		e.seed(t, p, 0, 1, 16, 17, 18)
		e.log = nil
		copyout := func(tag int) { // to volume 2
			seg, _ := e.c.TakeFree()
			e.c.Insert(tag, seg, true, p.Now())
			if err := e.disk.WriteBlocks(p, int64(e.amap.BlockOf(seg, 0)), fill(tag)); err != nil {
				t.Fatal(err)
			}
			e.svc.ScheduleCopyout(p, tag, seg)
		}
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

// Recorded at 20e5d2a with this test's body; "process, ns, transfer".
var parentSchedule = []string{
	"hl-io 28348372090 read lib0 vol1 seg0",
	"hl-io-1 28348372090 read lib0 vol0 seg0",
	"hl-io-1 28650585348 write lib0 vol2 seg0",
	"hl-io 28728290717 write lib0 vol2 seg1",
	"hl-io-1 42396890478 write lib0 vol2 seg2",
	"hl-io 42669934184 read lib0 vol1 seg1",
	"hl-io 42864224826 read lib0 vol0 seg1",
	"hl-io-1 42979608602 read lib0 vol1 seg2",
	"hl-io 70226309009 write lib0 vol2 seg3",
}
