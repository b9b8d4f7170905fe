// Package crash is a deterministic whole-stack crash-injection harness.
// It runs a scripted workload that exercises every pipeline phase (normal
// writes, disk cleaning, migration staging, copy-out, tertiary volume
// swap/cleaning), counts every media write across the disk farm and the
// jukebox, and can "cut the power" at an arbitrary media-write event:
// the durable device state at that instant is captured (volatile disk
// write cache dropped, in-flight jukebox segment torn), a fresh kernel
// remounts it, and the recovered file system is audited against a
// durability model of what had been synced before the cut.
//
// Everything runs on the simulator's virtual clock with a seeded RNG, so
// a (seed, cut-event) pair replays bit-identically — the property the
// crash matrix relies on to compare post-recovery digests across runs.
package crash

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Phase names, in workload order.
const (
	phaseNormalWrite = "normal-write"
	phaseCleaner     = "cleaner"
	phaseStaging     = "staging"
	phaseCopyOut     = "copy-out"
	phaseVolumeSwap  = "volume-swap"
)

// phaseNames lists the workload phases in execution order.
func phaseNames() []string {
	return []string{phaseNormalWrite, phaseCleaner, phaseStaging, phaseCopyOut, phaseVolumeSwap}
}

// config sizes the crash rig. Small segments keep single runs cheap while
// still forcing indirect blocks, cleaning pressure and volume spill.
type config struct {
	Seed             uint64
	SegBlocks        int
	DiskSegs         int
	CacheSegs        int
	MaxInodes        int
	Drives           int
	Vols             int
	SegsPerVol       int
	WriteCacheBlocks int // volatile disk write-back cache size
	EOMVol           int // volume given a reduced actual capacity ...
	EOMSegs          int // ... of this many segments, to force end-of-medium

	// Streams > 1 runs the copy-out pipeline with that many concurrent
	// tertiary I/O streams, and VolStripe > 1 stripes tertiary segment
	// allocation across volumes so those streams drive different
	// cartridges — the parallel pipeline of the K-stream migration work.
	// Cuts then land inside concurrent copy-outs, proving recovery with
	// several tertiary segments in flight at once, not just the serial
	// path. Zero keeps the historical single stream.
	Streams   int
	VolStripe int

	// Trace attaches a full-retention obs domain to every device and the
	// core during both the workload and recovery. Tracing reads only the
	// virtual clock and adds no virtual time, so a traced matrix must
	// produce the same digests as an untraced one (pinned by test).
	Trace bool

	// OnDiskWrite, if set, sees each disk write request of the workload
	// before it reaches the media: the media-write events counted so far
	// and the request's first block.
	OnDiskWrite func(event, blk int64)
}

// defaultConfig is the pinned rig used by `make crash`.
func defaultConfig() config {
	return config{
		Seed:             20260805,
		SegBlocks:        16,
		DiskSegs:         160,
		CacheSegs:        20,
		MaxInodes:        512,
		Drives:           2,
		Vols:             4,
		SegsPerVol:       6,
		WriteCacheBlocks: 8,
		EOMVol:           1,
		EOMSegs:          2,
	}
}

// phaseSpan is the half-open media-write event interval (Start, End]
// during which a workload phase executed.
type phaseSpan struct {
	Phase      string
	Start, End int
}

// snapshot is the durable state of the whole stack at one media-write
// event — exactly what a power cut at that instant preserves — plus the
// durability model needed to audit a recovery from it.
type snapshot struct {
	Event       int
	Phase       string
	Now         sim.Time
	WCacheDirty int // blocks lost from the volatile disk write cache

	Disk []byte // durable disk media as dev.Disk.SaveStore writes it (cache excluded)
	Juke []byte // jukebox media as jukebox.Jukebox.SaveStore writes it (torn if mid-write)

	// Durability model: Durable maps each path to its content at the
	// last completed durability point (Sync/Checkpoint/CompleteMigration
	// return). Dirty/Created/Removed record changes since that point —
	// for those, recovery may surface any intermediate state.
	Durable map[string][]byte
	Dirty   map[string]bool
	Created map[string]bool
	Removed map[string]bool
}

// runResult is the outcome of one workload execution.
type runResult struct {
	TotalEvents int
	Phases      []phaseSpan
	Snap        *snapshot // nil unless a cut event was hit
	EOMHit      bool      // the reduced volume returned end-of-medium
	Swaps       int64     // jukebox volume swaps observed
	Obs         *obs.Obs  // non-nil when config.Trace instrumented the run
	TableBlocks int       // blocks in each checkpoint table region
}

// runner drives the scripted workload and maintains the durability model.
type runner struct {
	cfg    config
	cut    dev.Cut // counts media-write events, shared by the disk and the jukebox
	snap   *snapshot
	cutErr error // the cut's SaveStore failed
	phases []phaseSpan
	cur    string
	rng    *sim.RNG

	k            *sim.Kernel
	disk         *dev.Disk
	juke         *jukebox.Jukebox
	hl           *core.HighLight
	phaseStartEv int

	// Model of logical file contents. Slices are copy-on-write (never
	// mutated in place) so snapshots may alias them safely.
	current map[string][]byte
	durable map[string][]byte
	dirty   map[string]bool
	created map[string]bool
	removed map[string]bool
}

func copySet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// capture records the power-cut state. It runs synchronously as the cut's
// At, mid-operation: the disk image excludes the volatile write cache and
// the jukebox image may hold a half-written (torn) segment — both
// deliberate.
func (r *runner) capture() error {
	var disk, juke bytes.Buffer
	if err := errors.Join(r.disk.SaveStore(&disk), r.juke.SaveStore(&juke)); err != nil {
		return fmt.Errorf("crash: saving the media at event %d: %w", r.cut.N, err)
	}
	durable := make(map[string][]byte, len(r.durable))
	for k, v := range r.durable {
		durable[k] = v
	}
	r.snap = &snapshot{
		Event:       int(r.cut.N),
		Phase:       r.cur,
		Now:         r.k.Now(),
		WCacheDirty: r.disk.WriteCacheDirty(),
		Disk:        disk.Bytes(),
		Juke:        juke.Bytes(),
		Durable:     durable,
		Dirty:       copySet(r.dirty),
		Created:     copySet(r.created),
		Removed:     copySet(r.removed),
	}
	return nil
}

func (r *runner) mark(phase string) {
	if r.cur != "" {
		r.phases = append(r.phases, phaseSpan{Phase: r.cur, Start: r.phaseStartEv, End: int(r.cut.N)})
	}
	r.cur = phase
	r.phaseStartEv = int(r.cut.N)
}

func (r *runner) pattern(nblocks int) []byte {
	b := make([]byte, nblocks*lfs.BlockSize)
	for i := range b {
		b[i] = byte(r.rng.Intn(256))
	}
	return b
}

// writeFile creates or overwrites name at byte offset off and updates the
// model (copy-on-write, so aliased snapshot slices stay intact).
func (r *runner) writeFile(p *sim.Proc, name string, off int, data []byte) error {
	var f *lfs.File
	var err error
	if _, ok := r.current[name]; ok {
		f, err = r.hl.FS.Open(p, name)
	} else {
		f, err = r.hl.FS.Create(p, name)
		if err == nil {
			r.created[name] = true
			delete(r.removed, name)
		}
	}
	if err != nil {
		return fmt.Errorf("crash: %s: %w", name, err)
	}
	if _, err := f.WriteAt(p, data, int64(off)); err != nil {
		return fmt.Errorf("crash: writing %s: %w", name, err)
	}
	old := r.current[name]
	size := len(old)
	if off+len(data) > size {
		size = off + len(data)
	}
	cur := make([]byte, size)
	copy(cur, old)
	copy(cur[off:], data)
	r.current[name] = cur
	r.dirty[name] = true
	return nil
}

func (r *runner) removeFile(p *sim.Proc, name string) error {
	if err := r.hl.FS.Remove(p, name); err != nil {
		return fmt.Errorf("crash: removing %s: %w", name, err)
	}
	delete(r.current, name)
	delete(r.dirty, name)
	delete(r.created, name)
	r.removed[name] = true
	return nil
}

// commit advances the durability model: everything in the current state
// is now guaranteed to survive a crash.
func (r *runner) commit() {
	durable := make(map[string][]byte, len(r.current))
	for k, v := range r.current {
		durable[k] = v
	}
	r.durable = durable
	r.dirty = map[string]bool{}
	r.created = map[string]bool{}
	r.removed = map[string]bool{}
}

func (r *runner) sync(p *sim.Proc) error {
	if err := r.hl.FS.Sync(p); err != nil {
		return fmt.Errorf("crash: sync: %w", err)
	}
	r.commit()
	return nil
}

func (r *runner) checkpoint(p *sim.Proc) error {
	if err := r.hl.Checkpoint(p); err != nil {
		return fmt.Errorf("crash: checkpoint: %w", err)
	}
	r.commit()
	return nil
}

func (r *runner) inum(p *sim.Proc, name string) (uint32, error) {
	f, err := r.hl.FS.Open(p, name)
	if err != nil {
		return 0, fmt.Errorf("crash: %s: %w", name, err)
	}
	return f.Inum(), nil
}

// buildDevices assembles the rig's device set on a fresh kernel.
func buildDevices(k *sim.Kernel, cfg config) (*dev.Disk, *jukebox.Jukebox, error) {
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	disk := dev.NewDisk(k, dev.RZ57, int64(cfg.DiskSegs*cfg.SegBlocks), bus)
	disk.EnableWriteCache(cfg.WriteCacheBlocks)
	juke, err := jukebox.New(k, jukebox.MO6300, cfg.Drives, cfg.Vols, cfg.SegsPerVol,
		cfg.SegBlocks*lfs.BlockSize, bus)
	if err != nil {
		return nil, nil, fmt.Errorf("crash: %w", err)
	}
	if cfg.EOMVol >= 0 && cfg.EOMVol < cfg.Vols && cfg.EOMSegs > 0 {
		juke.SetActualSegments(cfg.EOMVol, cfg.EOMSegs)
	}
	return disk, juke, nil
}

// attachObs instruments the rig with a full-retention trace domain when
// cfg.Trace is set; otherwise the core builds its own metrics-only
// domain and the devices stay uninstrumented.
func attachObs(k *sim.Kernel, cfg config, disk *dev.Disk, juke *jukebox.Jukebox) *obs.Obs {
	if !cfg.Trace {
		return nil
	}
	o := obs.New(k)
	o.EnableTrace()
	disk.SetObs(o, "")
	juke.SetObs(o, "")
	return o
}

func coreConfig(cfg config, o *obs.Obs, disk *dev.Disk, juke *jukebox.Jukebox) core.Config {
	return core.Config{
		SegBlocks:   cfg.SegBlocks,
		Disks:       []dev.BlockDev{disk},
		Jukeboxes:   []jukebox.Footprint{juke},
		CacheSegs:   cfg.CacheSegs,
		MaxInodes:   cfg.MaxInodes,
		BufferBytes: 1 << 20,
		Streams:     cfg.Streams,
		VolStripe:   cfg.VolStripe,
		Obs:         o,
	}
}

// runWorkload executes the scripted five-phase workload on a fresh rig.
// If cutEvent > 0, the durable state at that media-write event is
// captured into the result's Snap; the run still continues to completion
// so the phase spans and totals are identical across cut choices.
func runWorkload(cfg config, cutEvent int) (*runResult, error) {
	k := sim.NewKernel()
	defer k.Stop()
	disk, juke, err := buildDevices(k, cfg)
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg:     cfg,
		cut:     dev.Cut{Target: int64(cutEvent)},
		rng:     sim.NewRNG(cfg.Seed),
		k:       k,
		disk:    disk,
		juke:    juke,
		current: map[string][]byte{},
		durable: map[string][]byte{},
		dirty:   map[string]bool{},
		created: map[string]bool{},
		removed: map[string]bool{},
	}
	r.cut.At = func() { r.cutErr = r.capture() }
	disk.Cut, juke.Cut = &r.cut, &r.cut
	if cfg.OnDiskWrite != nil {
		disk.Fault = func(op string, blk int64) error {
			if op == "write" {
				cfg.OnDiskWrite(r.cut.N, blk)
			}
			return nil
		}
	}
	o := attachObs(k, cfg, disk, juke)

	var werr error
	k.RunProc(func(p *sim.Proc) {
		hl, err := core.New(p, coreConfig(cfg, o, disk, juke), true)
		if err != nil {
			werr = fmt.Errorf("crash: formatting rig: %w", err)
			return
		}
		r.hl = hl
		hl.FS.AttachCleaner(6, 10)
		werr = r.workload(p)
	})
	if err := errors.Join(werr, r.cutErr); err != nil {
		return nil, err
	}
	r.mark("") // close the final span
	// End of medium retires the unwritten rest of the volume.
	eom := false
	for _, u := range r.hl.VolumeUsages() {
		eom = eom || (u.Volume == cfg.EOMVol && u.NoStoreSegs > 0)
	}
	return &runResult{
		TotalEvents: int(r.cut.N),
		Phases:      r.phases,
		Snap:        r.snap,
		EOMHit:      eom,
		Swaps:       juke.Stats().Swaps,
		Obs:         o,
		TableBlocks: int(r.hl.FS.Superblock().TableBlocks),
	}, nil
}

// workload is the scripted five-phase exercise. Every phase both starts
// and ends between durability points, so cuts inside it land on a mix of
// synced and unsynced state.
func (r *runner) workload(p *sim.Proc) error {
	hl := r.hl

	// Phase 1 — normal writes: a base population, two sync barriers, and
	// a dirty (never-synced) tail so mid-phase cuts exercise the volatile
	// write cache dropping unflushed data.
	r.mark(phaseNormalWrite)
	for i := 0; i < 8; i++ {
		if err := r.writeFile(p, fmt.Sprintf("/f%d", i), 0, r.pattern(4+(i%5)*3)); err != nil {
			return err
		}
	}
	if err := r.sync(p); err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		if err := r.writeFile(p, fmt.Sprintf("/f%d", i), lfs.BlockSize, r.pattern(2)); err != nil {
			return err
		}
	}
	if err := r.sync(p); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := r.writeFile(p, fmt.Sprintf("/d%d", i), 0, r.pattern(3)); err != nil {
			return err
		}
	}

	// Phase 2 — disk cleaner: churn overwrites to kill segments, then a
	// cleaner pass (whose reuse commit is itself a checkpoint barrier).
	r.mark(phaseCleaner)
	if err := r.removeFile(p, "/f5"); err != nil {
		return err
	}
	if err := r.writeFile(p, "/f6", 0, r.pattern(10)); err != nil {
		return err
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 4; i++ {
			if err := r.writeFile(p, fmt.Sprintf("/churn%d", i), 0, r.pattern(6)); err != nil {
				return err
			}
		}
		if err := r.sync(p); err != nil {
			return err
		}
	}
	if segs := hl.FS.SelectCleanable(4); len(segs) > 0 {
		if _, err := hl.FS.CleanSegments(p, segs); err != nil {
			return fmt.Errorf("crash: cleaning: %w", err)
		}
	}
	if err := r.checkpoint(p); err != nil {
		return err
	}

	// Phase 3 — staging: migrate the base files with copy-outs delayed,
	// so this phase is pure disk-side staging (image writes, binding
	// checkpoints) with no tertiary traffic yet.
	r.mark(phaseStaging)
	hl.DelayCopyouts = true
	var inums []uint32
	for i := 0; i < 4; i++ {
		in, err := r.inum(p, fmt.Sprintf("/f%d", i))
		if err != nil {
			return err
		}
		inums = append(inums, in)
	}
	if _, err := hl.MigrateFiles(p, inums, true); err != nil {
		return fmt.Errorf("crash: staging migration: %w", err)
	}

	// Phase 4 — copy-out: release the delayed copyouts; every event here
	// is a jukebox media write (including the torn mid-segment points).
	r.mark(phaseCopyOut)
	hl.DelayCopyouts = false
	hl.FlushCopyouts(p)
	hl.Svc.DrainCopyouts(p)
	if err := hl.CompleteMigration(p); err != nil {
		return fmt.Errorf("crash: completing migration: %w", err)
	}
	if err := r.checkpoint(p); err != nil {
		return err
	}

	// Phase 5 — volume swap: enough new migration to spill past volume 0
	// onto the capacity-reduced volume (forcing end-of-medium retirement
	// and restage), then a tertiary cleaner pass that erases a volume.
	r.mark(phaseVolumeSwap)
	var bigs []uint32
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("/big%d", i)
		if err := r.writeFile(p, name, 0, r.pattern(16)); err != nil {
			return err
		}
	}
	if err := r.sync(p); err != nil {
		return err
	}
	for i := 0; i < 6; i++ {
		in, err := r.inum(p, fmt.Sprintf("/big%d", i))
		if err != nil {
			return err
		}
		bigs = append(bigs, in)
	}
	if _, err := hl.MigrateFiles(p, bigs, true); err != nil {
		return fmt.Errorf("crash: spill migration: %w", err)
	}
	if err := hl.CompleteMigration(p); err != nil {
		return fmt.Errorf("crash: completing spill migration: %w", err)
	}
	if err := r.checkpoint(p); err != nil {
		return err
	}
	if _, err := hl.CleanVolume(p, 0, 0); err != nil {
		return fmt.Errorf("crash: cleaning volume 0: %w", err)
	}
	return r.checkpoint(p)
}
