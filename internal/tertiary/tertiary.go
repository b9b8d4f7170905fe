// Package tertiary implements HighLight's user-level tertiary storage
// machinery (§6.7): the service process, which fields kernel requests
// (demand fetches of non-resident segments, ejections, copy-outs of
// freshly assembled tertiary segments), and the I/O process, which moves
// whole segments between the disk cache and the robotic devices through
// the Footprint interface.
//
// The data path deliberately preserves the paper's double copy (§7.2):
// a demand-fetched segment travels tertiary → I/O process memory → raw
// disk, and is then re-read through the file system — the measured
// inefficiency of Table 3. Virtual time charges both copies in full. The
// host makes neither: the changer lends its immutable segment image
// (jukebox.Footprint.LendSegment) and the cache line adopts it
// (dev.Adopter), so the bytes are shared until one side writes. The re-read
// through the file system copies nothing either: the disk lends each block
// of the adopted image to the buffer cache as a read-only view (dev.Part's
// Lend), and the cache gives a view a block of its own before it writes into
// it; only the read's copy into the caller's buffer remains. A copy-out
// reads its line once, into an image the disk keeps as its copy of the line
// (dev.Adopter.ShareBlocks) and the changer keeps as the medium's
// (jukebox.Footprint.AdoptSegment). The copy-outs of a replicated line (§5.4)
// each read it, as the clock charges, but every changer keeps one image: a
// copy-out whose read matches the image a sibling made hands that image on and
// keeps its buffer for the next read.
package tertiary

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/obs/reqtrace"
	"repro/internal/sim"
)

// ErrSegmentUnavailable marks a demand fetch that failed after all
// recovery options (retries, drive failover, replica fallback) were
// exhausted. Callers match it with errors.Is and degrade — an EIO to the
// faulting process — instead of wedging the service loop.
var ErrSegmentUnavailable = errors.New("tertiary: segment unavailable")

// The I/O process's recovery from transient faults (media dust,
// drive-offline windows, volume-load failures): retryMax retries after the
// first attempt, the virtual-time delay before them doubling from
// retryBackoff up to retryMaxBackoff. That survives error bursts a few
// failures deep while keeping a wedged device from stalling the I/O
// process for more than a few virtual seconds per request.
const (
	retryMax        = 6
	retryBackoff    = 50 * sim.Time(time.Millisecond)
	retryMaxBackoff = 5 * sim.Time(time.Second)
)

// Stats counts migration and fetch path events. Where virtual time went
// — Footprint transfers, I/O-process disk transfers, queueing — is no
// longer counted here: it is recorded as obs spans ("fp.read",
// "fp.write", "io.read", "io.write", "svc.queue", "fetch.wait") on the
// service's observability domain, which the Table 4 breakdown and
// hldump -datapath consume via Obs().CatTotal.
type Stats struct {
	Fetches    int64
	Copyouts   int64
	EOMRetries int64
	MaxPending int64 // most fetches requested and unresolved at once

	TransientRetries int64 // transient faults retried by the I/O process
	RetriesExhausted int64 // operations abandoned after the retry budget
	ReplicaRedirects int64 // fetches served from a replica instead of the primary
	FetchFaults      int64 // demand fetches that failed past recovery
	CopyoutFaults    int64 // copyouts that failed for reasons other than end-of-medium
	LateDefers       int64 // fetches whose data arrived to no line to be had, and were read again
}

// DeviceFaults is the per-device fault-visibility report: how many
// operations the injected Fault hooks refused and how often requests were
// redirected off an offline drive.
type DeviceFaults struct {
	Name        string
	ReadFaults  int64
	WriteFaults int64
	LoadFaults  int64
	Failovers   int64
}

type reqKind int

const (
	reqFetch reqKind = iota
	reqCopyout
	reqFetched
	reqCopiedOut
	reqRetryDeferred // a reader let go of a line (Unpin)
)

var reqKindNames = [...]string{"fetch", "copyout", "fetch-done", "copyout-done", "retry-deferred"}

func (k reqKind) String() string { return reqKindNames[k] }

type request struct {
	kind     reqKind
	tag      int
	seg      addr.SegNo // cache line (a copyout's; a fetch's once bound)
	bound    bool       // a fetch has taken seg out of the cache's hands
	pinTag   int        // cache line pinned for the duration (copyouts)
	line     *lineImage // shared by a replicated line's copy-outs; nil if unreplicated
	enqueued sim.Time
	err      error
	// tr is the first waiter's request trace, carried along so the I/O
	// daemon's work on this fetch (drive swaps, media transfers, staging
	// writes) is recorded against the request that caused it.
	tr *reqtrace.Trace
	// Set at dispatch: the library whose queue carries the transfer, the
	// volume it was routed to with the media time it will keep that volume's
	// drive busy, a fetch's copies in routed order, and the io-queue stage
	// open on tr.
	lib    int
	vol    int
	cost   sim.Time
	copies []int
	qst    int
}

// volKey names one volume of one library: what a drive holds.
type volKey struct{ lib, vol int }

type fetchWait struct {
	done    *sim.Cond
	waiters int // procs in DemandFetch that have not abandoned the wait
	line    *cache.Line
	err     error
	over    bool
}

// Service runs the service process and, per library, an I/O queue drained by
// that library's own I/O processes: two per stream, which take turns at the
// stream's media transfers (its drive token), so one reads the next segment
// off its medium while the other still writes the last one to its cache line.
type Service struct {
	k     *sim.Kernel
	amap  *addr.Map
	libs  []*jukebox.Library
	disk  dev.Adopter // the farm holding the cache lines
	cache *cache.Cache
	zero  []byte // the image of a never-written segment, once one was fetched

	reqs     *sim.Chan
	ioq      []*sim.Chan         // per library; a rig without libraries keeps one
	out      []int               // transfers queued or in flight, per library
	busy     map[volKey]sim.Time // their media time, per volume routed to
	free     []int               // drive tokens not taken, per library
	idle     []*sim.Cond         // where a library's I/O processes wait for work
	streams  int                 // I/O streams (drive tokens) per library
	pending  map[int]*fetchWait
	deferred []request // fetches waiting for an evictable line

	outCopy   int // copyouts in flight or queued
	readers   int // reader pins held on cache lines (Pin)
	copyCond  *sim.Cond
	failed    []int // tags whose copyout hit end-of-medium
	badWrites []int // tags whose copyout hit an unrecoverable media error
	prefetchQ []int

	stats Stats

	obs        *obs.Obs    // nil = not instrumented
	heat       *attr.Table // nil = no attribution
	audit      *attr.Audit // nil = routing decisions not audited
	fetchWaitH *obs.Histogram
	qdepth     *obs.Gauge
	outCopyG   *obs.Gauge

	// Prefetch, if set, returns tertiary segment indices to prefetch
	// after tag was demand-fetched (§6.2: the service process "may
	// choose unilaterally to insert new segments into the cache").
	Prefetch func(tag int) []int

	// AltCopies, if set, returns replica locations (tertiary segment
	// indices) holding the same bytes as tag; the I/O process reads the
	// "closest" copy — one whose volume is already in a drive (§5.4).
	AltCopies func(tag int) []int

	// Notify, if set, is told when a process is about to stall on a
	// tertiary fetch and when the data arrives — the §10 "hold on"
	// message to the user ("it would be nice if the user could be
	// notified about a file access which is delayed waiting for a
	// tertiary storage access"). It must not block.
	Notify func(tag int, waited sim.Time, done bool)

	// OnFetched, if set, is told whenever a demand fetch completes — the
	// input to §5.4's rewrite-on-fetch rearrangement policy ("rewrite
	// segments to tertiary storage as they are read into the cache.
	// This is more likely to reflect true access locality"). It must
	// not block.
	OnFetched func(tag int)

	// OnCopiedOut, if set, is told whenever a copy-out has reached tertiary
	// storage, after the staging line it came from (if tag is that line's
	// own segment) has been marked clean. It must not block.
	OnCopiedOut func(tag int)

	// Breaker, if set, is the per-library circuit-breaker gate consulted
	// by the fetch router: copies on a library whose breaker is open rank
	// just above down libraries (routed around, last-resort only), and
	// the I/O process reports every per-library attempt outcome so the
	// gate can trip on consecutive failures and half-open probe later.
	Breaker BreakerGate
}

// BreakerGate is the circuit-breaker interface the front end plugs into
// the fetch router. Allow reports whether library lib should be offered
// traffic right now (a half-open breaker says yes exactly once per probe
// window); OnResult feeds back the outcome of one attempt against lib.
type BreakerGate interface {
	Allow(lib int) bool
	OnResult(lib int, err error)
}

// New creates the service over the given libraries and cache and starts the
// service and I/O daemon processes. o is the observability domain the
// service and I/O processes trace into (nil disables instrumentation).
func New(k *sim.Kernel, o *obs.Obs, amap *addr.Map, libs []*jukebox.Library, disk dev.Adopter, c *cache.Cache) *Service {
	s := &Service{
		k:       k,
		amap:    amap,
		libs:    libs,
		disk:    disk,
		cache:   c,
		reqs:    k.NewChan("tertiary.svc", 256),
		pending: make(map[int]*fetchWait),
		obs:     o,
	}
	o.Adopt("tertiary.fetches", &s.stats.Fetches)
	o.Adopt("tertiary.copyouts", &s.stats.Copyouts)
	o.Adopt("tertiary.late_defers", &s.stats.LateDefers)
	s.fetchWaitH = o.Histogram("tertiary.fetch_wait", obs.LatencyBounds)
	s.qdepth = o.Gauge("tertiary.queue_depth")
	s.outCopyG = o.Gauge("tertiary.copyouts_outstanding")
	s.copyCond = k.NewCond("tertiary.copyouts")
	k.GoDaemon("hl-service", s.serviceLoop)
	for range max(1, len(libs)) {
		s.ioq = append(s.ioq, k.NewChan("tertiary.io", 256))
	}
	s.out = make([]int, len(s.ioq))
	s.busy = make(map[volKey]sim.Time)
	s.free = make([]int, len(s.ioq))
	for range s.ioq {
		s.idle = append(s.idle, k.NewCond("tertiary.io.idle"))
	}
	s.spawnIO("hl-io")
	return s
}

// AddIOStreams adds n I/O streams per library, each draining its library's
// queue, so several whole-segment transfers (staging fills, copy-out drains)
// proceed concurrently in virtual time. The per-library channel keeps
// dispatch order deterministic (FIFO handoff, daemons spawned in a fixed
// order).
func (s *Service) AddIOStreams(n int) {
	for i := 0; i < n; i++ {
		s.spawnIO(fmt.Sprintf("hl-io-%d", s.streams))
	}
}

// spawnIO adds one stream to every library: a drive token and two I/O
// processes, the second started by the first so that the kernel's event heap
// is no deeper at start-up than it was with one.
func (s *Service) spawnIO(name string) {
	for lib := range s.ioq {
		s.free[lib]++
		s.k.GoDaemon(name, func(p *sim.Proc) {
			s.k.GoDaemon(name+"b", func(p *sim.Proc) { s.ioLoop(p, lib) })
			s.ioLoop(p, lib)
		})
	}
	s.streams++
}

// Stats returns a snapshot of the counters.
func (s *Service) Stats() Stats { return s.stats }

// SetAttr attaches a heat-attribution table: completed demand fetches
// and copyouts are attributed to the tertiary segment they moved.
// (Evictions — including ejections — are attributed by the cache
// itself, so they are counted exactly once.)
func (s *Service) SetAttr(t *attr.Table) { s.heat = t }

// SetAudit attaches a decision audit: whenever the fetch router serves a
// copy other than the primary, the redirect and its reason are recorded
// so `hldump -why` can explain which library answered and why.
func (s *Service) SetAudit(a *attr.Audit) { s.audit = a }

// OutstandingCopyouts reports copyouts queued or in flight.
func (s *Service) OutstandingCopyouts() int { return s.outCopy }

// FailedCopyouts returns and clears the tags whose copyout hit
// end-of-medium; the migrator re-stages them on the next volume (§6.3).
func (s *Service) FailedCopyouts() []int {
	f := s.failed
	s.failed = nil
	return f
}

// FailedWrites returns and clears the tags whose copyout failed with an
// unrecoverable media error (not end-of-medium). The migrator retires the
// bad tertiary segment and restages the cache line onto a fresh one.
func (s *Service) FailedWrites() []int {
	f := s.badWrites
	s.badWrites = nil
	return f
}

// DeviceFaults reports the per-device injected-fault and failover
// counters accumulated by the Fault hooks.
func (s *Service) DeviceFaults() []DeviceFaults {
	var out []DeviceFaults
	for i, l := range s.libs {
		js := l.Stats()
		out = append(out, DeviceFaults{
			Name:        fmt.Sprintf("%s[%d]", l.Profile().Name, i),
			ReadFaults:  js.ReadFaults,
			WriteFaults: js.WriteFaults,
			LoadFaults:  js.LoadFaults,
			Failovers:   js.Failovers,
		})
	}
	if d, ok := s.disk.(*dev.Disk); ok {
		ds := d.Stats()
		out = append(out, DeviceFaults{
			Name:        "cache-disk",
			ReadFaults:  ds.ReadFaults,
			WriteFaults: ds.WriteFaults,
		})
	}
	return out
}

// segBytes is the tertiary transfer unit size.
func (s *Service) segBytes() int { return s.amap.SegBlocks() * dev.BlockSize }

// DemandFetch blocks until tertiary segment tag is disk-resident and
// returns its cache line; callers waiting for one segment share one fetch.
// The service path never takes the file system lock, so a caller may hold
// it, making every other file system operation wait out the fetch too:
// mutating operations, the migrator and the cleaner do; the read-only lfs
// entry points come here with the lock released (the block map's Fetch).
// The line is resident at the instant of return (pinned per waiter as the
// fetch resolves, unpinned as each resumes); a caller that blocks before it
// is done with the line pins it first (Pin).
func (s *Service) DemandFetch(p *sim.Proc, tag int) (*cache.Line, error) {
	if err := p.CtxErr(); err != nil {
		return nil, fmt.Errorf("tertiary: fetch of segment %d abandoned: %w", tag, err)
	}
	// A Peek: the block map's own lookup counted this miss, and staging in
	// without a read counts none (cache.Stats). Staging lines are
	// disk-resident by construction.
	if l, ok := s.cache.Peek(tag); ok {
		return l, nil
	}
	tr := reqtrace.From(p)
	w, ok := s.pending[tag]
	if !ok {
		w = &fetchWait{done: s.k.NewCond(fmt.Sprintf("fetch-%d", tag))}
		s.pending[tag] = w
		s.stats.MaxPending = max(s.stats.MaxPending, int64(len(s.pending)))
		// The first waiter's trace rides the fetch into the I/O daemon;
		// later waiters for the same tag only record their own fetch-wait.
		s.reqs.Send(p, request{kind: reqFetch, tag: tag, enqueued: p.Now(), tr: tr})
	}
	w.waiters++
	if s.Notify != nil {
		s.Notify(tag, 0, false)
	}
	// A canceled or expired request abandons the wait (the fetch itself
	// completes in the background and lands in the cache — no work is
	// lost, only this waiter's interest). The cancel waker broadcasts the
	// fetch cond so the abandonment is observed immediately, not at the
	// next completion.
	ctx := p.Ctx()
	ctx.OnCancel(w.done.Broadcast)
	start := p.Now()
	var note string
	if tr != nil {
		note = fmt.Sprintf("seg %d", tag)
	}
	st := tr.StageStart(reqtrace.KindFetchWait, start, note)
	// Whoever owns the request may lend what it holds (a front-end worker
	// slot) for the length of the wait, and may make Unpark wait to get it
	// back: on the way out the line is still pinned for this waiter then.
	// Whether to lend is the owner's decision: the front end does not when
	// the caller holds the file system lock (svc.FrontEnd.park).
	ctx.Park(p)
	for !w.over {
		if err := ctx.Err(); err != nil {
			w.waiters--
			tr.StageEnd(st, p.Now())
			ctx.Unpark(p)
			return nil, fmt.Errorf("tertiary: fetch of segment %d abandoned: %w", tag, err)
		}
		w.done.Wait(p)
	}
	tr.StageEnd(st, p.Now())
	if s.Notify != nil {
		s.Notify(tag, p.Now()-start, true)
	}
	s.obs.Span("tertiary.svc", "fetch.wait", "demand-fetch", start, obs.Arg{Key: "tag", Val: int64(tag)})
	s.fetchWaitH.Observe(p.Now() - start)
	ctx.Unpark(p)
	if w.line != nil {
		s.Unpin(p, w.line)
	}
	return w.line, w.err
}

// Pin marks l as being read (from the directory lookup to the end of the
// reader's disk read): no fetch started meanwhile takes it as its victim.
func (s *Service) Pin(l *cache.Line) {
	l.Pins++
	s.readers++
}

// Unpin drops a reader's pin. A line without pins may be evictable: news for
// deferred fetches and for a migrator in WaitCopyoutProgress, which must also
// look again when the last reader is gone (a line can stay pinned by others,
// the tertiary cleaner for one, and then no reader is left to wake it).
func (s *Service) Unpin(p *sim.Proc, l *cache.Line) {
	l.Pins--
	s.readers--
	if l.Pins == 0 || s.readers == 0 {
		s.copyCond.Broadcast()
	}
	if l.Pins == 0 && len(s.deferred) > 0 {
		s.reqs.Send(p, request{kind: reqRetryDeferred, enqueued: p.Now()})
	}
}

// ScheduleCopyout queues the staging cache line holding tertiary segment
// tag for transfer to the robotic device. The write "is serviced
// asynchronously, so that the migration control policies may choose to
// move multiple segments in a single logical operation" (§6.2).
func (s *Service) ScheduleCopyout(p *sim.Proc, tag int, seg addr.SegNo) {
	s.ScheduleCopyouts(p, seg, tag, tag)
}

// ScheduleCopyouts writes the cache-line disk segment seg to each tertiary
// segment of tags, queued in that order, pinning the cache line registered
// under pinTag once per copy-out. Several tags lay down segment replicas
// (§5.4), where the same staged bytes are written to several tertiary
// locations: their copy-outs share one image of the line (lineImage).
func (s *Service) ScheduleCopyouts(p *sim.Proc, seg addr.SegNo, pinTag int, tags ...int) {
	var line *lineImage
	if len(tags) > 1 {
		line = new(lineImage)
	}
	for _, tag := range tags {
		if l, ok := s.cache.Peek(pinTag); ok {
			l.Pins++
		}
		s.outCopy++
		s.outCopyG.Set(int64(s.outCopy))
		s.reqs.Send(p, request{kind: reqCopyout, tag: tag, seg: seg, pinTag: pinTag, enqueued: p.Now(), line: line})
	}
}

// lineImage is what the copy-outs of one replicated line share: the newest
// image one of them read the line into. Each changer it is handed to keeps it
// as its medium's segment, so nothing writes it again.
type lineImage struct{ img []byte }

// DrainCopyouts blocks until every scheduled copyout has completed.
func (s *Service) DrainCopyouts(p *sim.Proc) {
	for s.outCopy > 0 {
		s.copyCond.Wait(p)
	}
}

// WaitCopyoutProgress blocks until one in-flight copyout completes or a
// reader lets go of its line; with neither to wait for it reports false at
// once. The migrator uses it to wait for a line to become evictable.
func (s *Service) WaitCopyoutProgress(p *sim.Proc) bool {
	if s.outCopy == 0 && s.readers == 0 {
		return false
	}
	s.copyCond.Wait(p)
	return true
}

// requestPrefetch enqueues background fetches (no waiter).
func (s *Service) requestPrefetch(p *sim.Proc, tags []int) {
	for _, tag := range tags {
		if _, ok := s.cache.Peek(tag); ok {
			continue
		}
		if _, ok := s.pending[tag]; ok {
			continue
		}
		s.pending[tag] = &fetchWait{done: s.k.NewCond(fmt.Sprintf("prefetch-%d", tag))}
		s.reqs.Send(p, request{kind: reqFetch, tag: tag, enqueued: p.Now()})
	}
}

// Eject discards a clean cached line (the kernel "may request ... the
// ejection of some cached line in order to reclaim its space").
func (s *Service) Eject(tag int) error {
	l, ok := s.cache.Peek(tag)
	if !ok {
		return fmt.Errorf("tertiary: eject: segment %d not cached", tag)
	}
	if l.Staging || l.Pins > 0 {
		return fmt.Errorf("tertiary: eject: segment %d busy", tag)
	}
	seg, err := s.cache.Evict(l)
	if err != nil {
		return err
	}
	s.cache.Release(seg)
	return nil
}

// EjectAll ejects every line that is neither staging (its only copy is the
// one on disk) nor pinned by a reader or copy-out, so the next read of
// migrated data is a demand fetch. Lines go in Cache.Lines() order — tag
// order, so the free list's reuse order is reproducible. It returns how
// many went and the first ejection that failed.
func (s *Service) EjectAll() (ejected int, err error) {
	for _, l := range s.cache.Lines() {
		if l.Staging || l.Pins > 0 {
			continue
		}
		if err := s.Eject(l.Tag); err != nil {
			return ejected, err
		}
		ejected++
	}
	return ejected, nil
}

// serviceLoop is the service process: it fields requests from the kernel
// and completion messages from the I/O process.
func (s *Service) serviceLoop(p *sim.Proc) {
	for {
		r := s.reqs.Recv(p).(request)
		s.obs.Span("tertiary.svc", "svc.queue", r.kind.String(), r.enqueued,
			obs.Arg{Key: "tag", Val: int64(r.tag)})
		s.qdepth.Set(int64(s.reqs.Len()))
		switch r.kind {
		case reqFetch:
			s.startFetch(p, r)
		case reqCopyout:
			s.dispatch(p, r, r.tag)
		case reqFetched:
			s.finishFetch(p, r)
		case reqCopiedOut:
			s.finishCopyout(p, r)
		case reqRetryDeferred:
			s.retryDeferred(p)
		}
	}
}

// dispatch queues a transfer for the I/O processes of the library holding
// tertiary segment to (library 0 if to does not map: the I/O process's own
// locate turns that into the transfer's error). With all of them busy, the
// wait until one picks it up is the request's io-queue stage.
func (s *Service) dispatch(p *sim.Proc, r request, to int) {
	lib, vol, _, _ := s.locate(to)
	r.lib, r.vol, r.cost, r.qst = lib, vol, s.mediaTime(lib, r.kind), -1
	if r.tr != nil && s.out[lib] >= s.streams {
		r.qst = r.tr.StageStart(reqtrace.KindIOQueue, p.Now(), fmt.Sprintf("lib %d depth %d", lib, s.out[lib]))
	}
	s.out[lib]++
	s.busy[volKey{lib, vol}] += r.cost
	s.ioq[lib].Send(p, r)
	if s.free[lib] > 0 {
		s.idle[lib].Signal()
	}
}

// nextTransfer waits until library lib has a transfer queued and a drive
// token free, and takes both. Only dispatch and a process that gives its
// token back and then blocks (ioLoop, before the line write) signal: every
// other change to the two is made by a process that comes here to look for
// itself before it blocks anywhere else.
func (s *Service) nextTransfer(p *sim.Proc, lib int) request {
	for s.ioq[lib].Len() == 0 || s.free[lib] == 0 {
		s.idle[lib].Wait(p)
	}
	s.free[lib]--
	v, _ := s.ioq[lib].TryRecv()
	return v.(request)
}

// transferDone takes a finished transfer out of the router's counts.
func (s *Service) transferDone(r request) {
	s.out[r.lib]--
	on := volKey{r.lib, r.vol}
	if s.busy[on] -= r.cost; s.busy[on] == 0 {
		delete(s.busy, on)
	}
}

// mediaTime is how long one segment keeps a drive of library lib
// transferring, from the device's own profile (0 for a device without one).
func (s *Service) mediaTime(lib int, kind reqKind) sim.Time {
	if lib >= len(s.libs) {
		return 0
	}
	prof := s.libs[lib].Profile()
	rate := prof.MediaRead
	if kind == reqCopyout {
		rate = prof.MediaWrite
	}
	if rate <= 0 {
		return 0
	}
	return sim.Time(int64(s.segBytes()) * int64(time.Second) / rate)
}

// Outstanding reports the transfers queued or in flight at library lib.
func (s *Service) Outstanding(lib int) int { return s.out[lib] }

// startFetch routes the fetch and hands the transfer to the chosen library's
// I/O processes, without a cache line: the I/O process binds one when the data
// has arrived (takeLine). With no line to be had even now, free or evictable,
// the request is deferred until a copyout completes or a reader lets go.
func (s *Service) startFetch(p *sim.Proc, r request) {
	if _, ok := s.cache.Peek(r.tag); ok {
		s.resolveFetch(r.tag, nil)
		return
	}
	if s.cache.FreeLines() == 0 && s.cache.Victim() == nil {
		s.deferred = append(s.deferred, r)
		return
	}
	copies := s.readOrder(r.tag, r.tr)
	s.dispatch(p, request{kind: reqFetch, tag: r.tag, tr: r.tr, copies: copies}, copies[0])
}

// takeLine takes a cache line for data that has just arrived: a free one, else
// the victim of this instant, so that a line hit while the fetch was in flight
// is not the one thrown away. It never blocks.
func (s *Service) takeLine() (addr.SegNo, bool) {
	if seg, ok := s.cache.TakeFree(); ok {
		return seg, true
	}
	v := s.cache.Victim()
	if v == nil {
		return 0, false
	}
	seg, err := s.cache.Evict(v)
	if err != nil {
		return 0, false
	}
	return seg, true
}

// errNoLine is how an I/O process reports a late deferral.
var errNoLine = errors.New("tertiary: no cache line for the fetched segment")

func (s *Service) finishFetch(p *sim.Proc, r request) {
	s.transferDone(r)
	if errors.Is(r.err, errNoLine) {
		// A late deferral: every line was staging or pinned when the data
		// arrived. The I/O process did not wait for one (the copy-out that
		// frees one may be queued behind it); the fetch starts over.
		s.stats.LateDefers++
		s.startFetch(p, request{kind: reqFetch, tag: r.tag, enqueued: p.Now(), tr: r.tr})
		return
	}
	if r.err != nil {
		s.stats.FetchFaults++
		if r.bound {
			s.cache.Release(r.seg)
		}
		s.resolveFetch(r.tag, fmt.Errorf("tertiary: segment %d: %w: %w", r.tag, ErrSegmentUnavailable, r.err))
		// The freed line may unblock fetches deferred for lack of space.
		s.retryDeferred(p)
		return
	}
	if _, err := s.cache.Insert(r.tag, r.seg, false, p.Now()); err != nil {
		s.cache.Release(r.seg)
		s.resolveFetch(r.tag, err)
		s.retryDeferred(p)
		return
	}
	s.stats.Fetches++
	s.obs.Counter("tertiary.bytes_in").Add(int64(s.segBytes()))
	s.heat.Touch(r.tag, attr.Fetch, p.Now())
	s.resolveFetch(r.tag, nil)
	if s.OnFetched != nil {
		s.OnFetched(r.tag)
	}
	if s.Prefetch != nil {
		s.requestPrefetch(p, s.Prefetch(r.tag))
	}
	s.retryDeferred(p)
}

func (s *Service) resolveFetch(tag int, err error) {
	w, ok := s.pending[tag]
	if !ok {
		return
	}
	delete(s.pending, tag)
	if err == nil {
		if l, present := s.cache.Peek(tag); present {
			w.line = l
			// One reader pin per waiter, held until it resumes.
			l.Pins += w.waiters
			s.readers += w.waiters
		} else {
			err = fmt.Errorf("tertiary: fetch of segment %d resolved without a line", tag)
		}
	}
	w.err = err
	w.over = true
	w.done.Broadcast()
}

func (s *Service) finishCopyout(p *sim.Proc, r request) {
	s.transferDone(r)
	if l, ok := s.cache.Peek(r.pinTag); ok {
		if l.Pins > 0 {
			l.Pins--
		}
		if r.err == nil && r.tag == r.pinTag {
			s.cache.Unstage(l)
		}
	}
	if r.err == nil {
		s.stats.Copyouts++
		s.obs.Counter("tertiary.bytes_out").Add(int64(s.segBytes()))
		s.heat.Touch(r.tag, attr.Copyout, p.Now())
		if s.OnCopiedOut != nil {
			s.OnCopiedOut(r.tag)
		}
	} else if errors.Is(r.err, jukebox.ErrEndOfMedium) {
		s.stats.EOMRetries++
		s.failed = append(s.failed, r.tag)
	} else {
		// Unrecoverable write: the staging line keeps the sole copy
		// (Staging stays set, so it cannot be evicted); the migrator
		// retires the bad tertiary segment and restages elsewhere.
		s.stats.CopyoutFaults++
		s.badWrites = append(s.badWrites, r.tag)
	}
	s.outCopy--
	s.outCopyG.Set(int64(s.outCopy))
	s.copyCond.Broadcast()
	s.retryDeferred(p)
}

func (s *Service) retryDeferred(p *sim.Proc) {
	if len(s.deferred) == 0 {
		return
	}
	ds := s.deferred
	s.deferred = nil
	for _, d := range ds {
		s.startFetch(p, d)
	}
}

// transientFault reports whether err is worth retrying: injected
// transient media errors and all-drives-offline windows clear on their
// own; anything else (permanent media damage, programmer bugs like
// write-once violations, end-of-medium) does not.
func transientFault(err error) bool {
	return errors.Is(err, dev.ErrTransientMedia) || errors.Is(err, jukebox.ErrDriveOffline)
}

// withRetry runs op up to 1+retryMax times, sleeping the (virtual-time,
// doubling) backoff between attempts. Non-transient errors
// return immediately.
func (s *Service) withRetry(p *sim.Proc, op func() error) error {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || !transientFault(err) {
			return err
		}
		if attempt >= retryMax {
			s.stats.RetriesExhausted++
			s.obs.Instant("tertiary.io", "io.retries_exhausted", "exhausted")
			return err
		}
		s.stats.TransientRetries++
		s.obs.Instant("tertiary.io", "io.retry", "retry")
		tr := reqtrace.From(p)
		st := tr.StageStart(reqtrace.KindRetryBackoff, p.Now(), "")
		p.Sleep(backoff)
		tr.StageEnd(st, p.Now())
		backoff = min(2*backoff, retryMaxBackoff)
	}
}

// Routing ranks, closest copy first. The router never rejects a copy
// outright — even a copy in a down library stays in the order as the
// last-resort failover source — it only sorts by how cheaply a read can
// start right now.
const (
	routeLoaded   = iota // in-service library, volume already in a drive
	routeSwap            // in-service library, volume must be loaded first
	routeTripped         // circuit breaker open for the library
	routeDownLib         // library out of service
	routeUnmapped        // copy index does not resolve to a location
)

func routeRankName(rank int) string {
	switch rank {
	case routeLoaded:
		return "volume-loaded"
	case routeSwap:
		return "volume-swap"
	case routeTripped:
		return "breaker-open"
	case routeDownLib:
		return "library-down"
	}
	return "unmapped"
}

// readOrder lists the physical copies of tag to try, closest first: a
// loaded volume beats one that must be swapped in, which beats a tripped
// library, which beats a down one (§5.4 "closest copy", generalized across
// failure domains); within a rank, the copy whose volume has the least media
// time queued or in flight (a drive serves one volume: a copy-out to the
// primary's volume keeps its drive for seconds while the replica's idles),
// then the library with the fewest transfers queued or in flight. The sort is
// stable, so a tie stays with the primary and replicas keep catalog order. It
// runs once per fetch, at dispatch. Replica redirects are recorded in the
// decision audit.
func (s *Service) readOrder(tag int, tr *reqtrace.Trace) []int {
	cands := []int{tag}
	if s.AltCopies != nil {
		cands = append(cands, s.AltCopies(tag)...)
	}
	if len(cands) == 1 {
		return cands
	}
	ranks := make([]int, len(cands))
	load := make([]int, len(cands))      // transfers outstanding at the copy's library
	busy := make([]sim.Time, len(cands)) // media time outstanding at the copy's volume
	for i, c := range cands {
		ranks[i] = routeUnmapped
		d, vol, _, err := s.locate(c)
		if err != nil {
			continue
		}
		load[i], busy[i] = s.out[d], s.busy[volKey{d, vol}]
		switch {
		case s.libs[d].Down():
			ranks[i] = routeDownLib
		case s.Breaker != nil && !s.Breaker.Allow(d):
			ranks[i] = routeTripped
		case s.libs[d].VolumeLoaded(vol):
			ranks[i] = routeLoaded
		default:
			ranks[i] = routeSwap
		}
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if ranks[order[a]] != ranks[order[b]] {
			return ranks[order[a]] < ranks[order[b]]
		}
		if busy[order[a]] != busy[order[b]] {
			return busy[order[a]] < busy[order[b]]
		}
		return load[order[a]] < load[order[b]]
	})
	out := make([]int, len(cands))
	for i, oi := range order {
		out[i] = cands[oi]
	}
	// Record breaker influence on the trace without touching the breaker
	// itself (Allow above consumes half-open probe tokens — never re-ask):
	// a tripped primary means the read detours, a tripped winner means
	// every copy sits behind an open breaker.
	if tr != nil && ranks[order[0]] == routeTripped {
		tr.Mark(reqtrace.KindBreakerWait, s.k.Now(), "best copy breaker-open")
	} else if tr != nil && ranks[0] == routeTripped {
		tr.Mark(reqtrace.KindBreakerWait, s.k.Now(), "primary breaker open")
	}
	if out[0] != tag {
		s.audit.Record(attr.Decision{
			T: s.k.Now(), Actor: "tert.route", Subject: fmt.Sprintf("copy %d", out[0]),
			Seg: tag, Verdict: attr.VerdictRouted, Reason: routeRankName(ranks[order[0]]),
			Inputs: []attr.Input{attr.In("copy", float64(out[0])), attr.In("rank", float64(ranks[order[0]]))},
		})
	}
	return out
}

// ioLoop is one of library lib's I/O processes: it executes whole-segment
// transfers between the disk cache and the Footprint devices, recovering
// from transient faults with bounded retries and falling back across
// replicas — other libraries' included — on reads. It holds one of the
// library's drive tokens for a transfer, but not for the cache-line write
// that ends a fetch: the next transfer's medium moves meanwhile. A fetch has
// no line until its data is here and the token is back (takeLine); with none
// to be had the process does not wait for one, and the fetch starts over
// (errNoLine). The line is announced (reqFetched) only once it is written.
func (s *Service) ioLoop(p *sim.Proc, lib int) {
	var buf []byte // read buffer of replicated copy-outs, until it becomes a line's image
	for {
		r := s.nextTransfer(p, lib)
		token := true
		r.tr.StageEnd(r.qst, p.Now())
		switch r.kind {
		case reqFetch:
			// Run the transfer under a carrier scope holding the waiter's
			// trace, so the layers below (jukebox swap and transfer, the
			// staging write through the stripe farm, retry backoffs) record
			// against the request that demanded the fetch. The scope never
			// cancels — the fetch completes regardless of the waiter's fate.
			restore := func() {}
			if r.tr != nil {
				cc := s.k.NewCtx(0)
				cc.SetTrace(r.tr)
				restore = p.PushCtx(cc)
			}
			var img []byte // lent by the changer; nil for a never-written segment
			var err error
			for _, c := range r.copies {
				d, vol, volseg, lerr := s.locate(c)
				if lerr != nil {
					err = lerr
					continue
				}
				t0 := p.Now()
				err = s.withRetry(p, func() (err error) {
					img, err = s.libs[d].LendSegment(p, vol, volseg)
					return err
				})
				s.obs.Span("tertiary.io", "fp.read", "ReadSegment", t0,
					obs.Arg{Key: "tag", Val: int64(r.tag)}, obs.Arg{Key: "copy", Val: int64(c)})
				if s.Breaker != nil {
					s.Breaker.OnResult(d, err)
				}
				if err == nil {
					if c != r.tag {
						s.stats.ReplicaRedirects++
					}
					break
				}
			}
			if err == nil {
				// The medium is done with: the token goes back, and the
				// stream's other process takes the next transfer meanwhile.
				token = false
				s.free[lib]++
				if s.ioq[lib].Len() > 0 {
					s.idle[lib].Signal()
				}
				if r.seg, r.bound = s.takeLine(); !r.bound {
					err = errNoLine
				}
			}
			if err == nil {
				t0 := p.Now()
				err = s.withRetry(p, func() error { return s.writeLine(p, r.seg, img) })
				s.obs.Span("tertiary.io", "io.write", "WriteBlocks", t0,
					obs.Arg{Key: "tag", Val: int64(r.tag)}, obs.Arg{Key: "seg", Val: int64(r.seg)})
			}
			restore()
			r.kind, r.err = reqFetched, err
		case reqCopyout:
			d, vol, volseg, err := s.locate(r.tag)
			var img []byte
			if err == nil {
				t0 := p.Now()
				img, err = s.readCopyout(p, r, &buf)
				s.obs.Span("tertiary.io", "io.read", "ReadBlocks", t0,
					obs.Arg{Key: "tag", Val: int64(r.tag)}, obs.Arg{Key: "seg", Val: int64(r.seg)})
			}
			if err == nil {
				t0 := p.Now()
				err = s.withRetry(p, func() error { return s.libs[d].AdoptSegment(p, vol, volseg, img) })
				s.obs.Span("tertiary.io", "fp.write", "WriteSegment", t0,
					obs.Arg{Key: "tag", Val: int64(r.tag)})
				if s.Breaker != nil {
					s.Breaker.OnResult(d, err)
				}
			}
			r.kind, r.err = reqCopiedOut, err
		}
		// A token still held is kept through the report, which can block, as
		// the I/O process always was: giving it back first would leave a
		// queued transfer with a free token and nobody awake to see them.
		r.enqueued = p.Now()
		s.reqs.Send(p, r)
		if token {
			s.free[lib]++
		}
	}
}

// readCopyout reads copy-out r's line into the image its changer is to keep,
// once, as the clock charges it. An unreplicated line is read into a fresh
// image the disk may keep as its copy of the line too (dev.Adopter.ShareBlocks).
// A replicated one is read into the process's buffer *buf: if the image a
// sibling copy-out made holds the same bytes, that image is the one to keep and
// *buf is kept for the next read; otherwise *buf becomes the line's image.
func (s *Service) readCopyout(p *sim.Proc, r request, buf *[]byte) ([]byte, error) {
	blk := int64(s.amap.BlockOf(r.seg, 0))
	if r.line == nil {
		var img []byte
		err := s.withRetry(p, func() error {
			img = make([]byte, s.segBytes()) // a failed read may have handed the last one over
			return s.disk.ShareBlocks(p, blk, img)
		})
		return img, err
	}
	if *buf == nil {
		*buf = make([]byte, s.segBytes())
	}
	if err := s.withRetry(p, func() error { return s.disk.ReadBlocks(p, blk, *buf) }); err != nil {
		return nil, err
	}
	if !bytes.Equal(*buf, r.line.img) {
		r.line.img, *buf = *buf, nil
	}
	return r.line.img, nil
}

// writeLine hands a fetched segment's image to cache line seg by reference: the
// lent one, or for a never-written segment (nil) the service's zero image.
func (s *Service) writeLine(p *sim.Proc, seg addr.SegNo, img []byte) error {
	if img == nil {
		if s.zero == nil {
			s.zero = make([]byte, s.segBytes())
		}
		img = s.zero
	}
	return s.disk.AdoptBlocks(p, int64(s.amap.BlockOf(seg, 0)), img)
}

// locate resolves a tertiary segment index to (device, volume, volseg).
// An unmappable index — a corrupted tag — is a returned error, not a
// panic: the request path surfaces it and the simulation degrades.
func (s *Service) locate(tag int) (devIdx, vol, volseg int, err error) {
	if tag < 0 || tag >= s.amap.TertSegs() {
		return 0, 0, 0, fmt.Errorf("tertiary: index %d out of range [0,%d)", tag, s.amap.TertSegs())
	}
	seg := s.amap.SegForIndex(tag)
	d, v, vs, ok := s.amap.Loc(seg)
	if !ok {
		return 0, 0, 0, fmt.Errorf("tertiary: index %d does not map to a tertiary segment", tag)
	}
	return d, v, vs, nil
}
