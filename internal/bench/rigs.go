package bench

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/ffs"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wl"
)

// Scale parameterizes the rigs. Full reproduces the paper's configuration
// (§7): an 848 MB RZ57 partition, a 3.2 MB buffer cache, an HP 6300 MO
// changer with two drives and 32 cartridges constrained to 40 MB each, and
// a 51.2 MB large object. Quick shrinks everything for unit tests.
type Scale struct {
	SegBlocks   int
	DiskSegs    int // 1 MB segments on the main disk
	CacheSegs   int
	BufferBytes int
	Vols        int
	SegsPerVol  int
	Frames      int
	SeqFrames   int
	SmallFrames int
	FileSizes   []int64 // Table 3 file sizes
	StageSegs   int     // staging-spindle size for Table 6 variants

	// Libraries and Replicas parameterize the replicated tertiary tier.
	// Zero values (the default, and what every committed baseline uses)
	// mean one changer and no replication — bit-identical to the
	// pre-replication rig.
	Libraries int // extra identical MO changers beyond the first
	Replicas  int // tertiary copies per staged segment; <2 disables

	// Farm parameters: FarmDisks > 1 splits the main disk's capacity over
	// that many RZ57 spindles on private channels (so scaling is not
	// capped by the shared SCSI bus), striped with StripeUnit blocks
	// (0 = concatenated) and optional rotating Parity. Streams > 1 adds
	// concurrent tertiary I/O streams. All zero values keep the committed
	// single-spindle baselines bit-identical.
	FarmDisks  int
	StripeUnit int
	Parity     bool
	Streams    int
}

// HP9000/370 CPU model: the paper's test machine copies data slowly enough
// to matter. AssemblyCopyRate is solved so base LFS's sequential write
// lands at Table 2's 639 KB/s (the "extra buffer copies performed inside
// the LFS code"); UserCopyRate so FFS's sequential read lands near
// 1002 KB/s (raw 1417 KB/s minus the copy to user space).
const (
	hp370AssemblyCopyRate = 1880 * 1024
	hp370UserCopyRate     = 3150 * 1024
)

// FullScale is the paper's configuration.
func FullScale() Scale {
	return Scale{
		SegBlocks:   256,
		DiskSegs:    848,
		CacheSegs:   96,
		BufferBytes: 3200 * 1024,
		Vols:        32,
		SegsPerVol:  40,
		Frames:      12500,
		SeqFrames:   2500,
		SmallFrames: 250,
		FileSizes:   []int64{10 * 1024, 100 * 1024, 1024 * 1024, 10 * 1024 * 1024},
		StageSegs:   112,
	}
}

// QuickScale is a reduced configuration for fast test runs.
func QuickScale() Scale {
	return Scale{
		SegBlocks:   64,
		DiskSegs:    256,
		CacheSegs:   48,
		BufferBytes: 1024 * 1024,
		Vols:        4,
		SegsPerVol:  64,
		Frames:      2048,
		SeqFrames:   512,
		SmallFrames: 64,
		FileSizes:   []int64{10 * 1024, 100 * 1024, 1024 * 1024},
		StageSegs:   56,
	}
}

// spec is the scale's large object (§7.1).
func (s Scale) spec() wl.LargeObjectSpec {
	return wl.LargeObjectSpec{
		Path:        "/obj",
		Frames:      s.Frames,
		SeqFrames:   s.SeqFrames,
		SmallFrames: s.SmallFrames,
		Seed:        42,
	}
}

func (s Scale) objectMB() float64 {
	return float64(s.Frames) * wl.FrameSize / (1024 * 1024)
}

// run executes body as the main process of k and then stops the kernel,
// whether body failed or not: a cell's error return cannot leave the
// tertiary service and I/O daemons of its rig parked forever.
func run(k *sim.Kernel, body func(*sim.Proc) error) error {
	defer k.Stop()
	var err error
	k.RunProc(func(p *sim.Proc) { err = body(p) })
	return err
}

// fsRig is a file system under test on a kernel of its own: the FFS and
// base-LFS baselines, or HighLight (hl set) at the paper's scale.
type fsRig struct {
	k   *sim.Kernel
	t   wl.Target
	hl  *core.HighLight
	err error // why the rig could not be built or mounted; run reports it
}

// format runs mount as the rig's first process: the table rigs mount in a
// process of their own before the workload's process starts, and that
// schedule is pinned by every committed number.
func (r *fsRig) format(mount func(*sim.Proc) error) *fsRig {
	r.k.RunProc(func(p *sim.Proc) { r.err = mount(p) })
	return r
}

// run executes body as the rig's main process and stops the rig. A rig
// that failed to mount runs nothing and returns why.
func (r *fsRig) run(body func(*sim.Proc) error) error {
	if r.err != nil {
		r.k.Stop()
		return fmt.Errorf("bench: mounting rig: %w", r.err)
	}
	return run(r.k, body)
}

// newFFSRig builds the baseline FFS on an RZ57 behind a SCSI bus.
func newFFSRig(s Scale) *fsRig {
	r := &fsRig{k: sim.NewKernel()}
	bus := dev.NewBus(r.k, "scsi", dev.SCSIBusRate)
	disk := dev.NewDisk(r.k, dev.RZ57, int64(s.DiskSegs*s.SegBlocks), bus)
	return r.format(func(p *sim.Proc) error {
		fs, err := ffs.Format(p, disk, ffs.Options{BufferBytes: s.BufferBytes, UserCopyRate: hp370UserCopyRate})
		r.t = wl.FFSTarget{Label: "ffs", FS: fs}
		return err
	})
}

// newLFSRig builds a base 4.4BSD LFS (no tertiary level).
func newLFSRig(s Scale) *fsRig {
	r := &fsRig{k: sim.NewKernel()}
	bus := dev.NewBus(r.k, "scsi", dev.SCSIBusRate)
	disk := dev.NewDisk(r.k, dev.RZ57, int64(s.DiskSegs*s.SegBlocks), bus)
	amap := addr.New(s.SegBlocks, s.DiskSegs)
	return r.format(func(p *sim.Proc) error {
		fs, err := lfs.Format(p, lfs.DiskDevice{BD: disk}, amap, lfs.Options{
			BufferBytes:      s.BufferBytes,
			AssemblyCopyRate: hp370AssemblyCopyRate,
			UserCopyRate:     hp370UserCopyRate,
		})
		r.t = wl.LFSTarget{Label: "lfs", FS: fs}
		return err
	})
}

// stagingKind selects the Table 6 configuration.
type stagingKind int

const (
	stageOnMain stagingKind = iota // RZ57 only
	stageOnRZ58
	stageOnHP7958A
)

// newHLRig builds HighLight at the paper's scale with staging on the main
// spindle — every table's rig but Table 6's two staging-disk columns.
func newHLRig(s Scale) *fsRig { return newStagedHLRig(s, stageOnMain) }

// newStagedHLRig builds HighLight: RZ57 (plus an optional staging spindle)
// and the MO jukebox, all on one SCSI bus — except an HP-IB staging disk,
// which gets its own channel, as in the paper's HP7958A test.
func newStagedHLRig(s Scale, kind stagingKind) *fsRig {
	k := sim.NewKernel()
	o := obs.New(k)
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	var farm []dev.BlockDev
	if s.FarmDisks > 1 {
		// Multi-spindle farm: capacity split evenly, each spindle on its
		// own channel (the shared 3.9 MB/s SCSI bus would cap the farm at
		// about two disks' bandwidth).
		per := int64(s.DiskSegs * s.SegBlocks / s.FarmDisks)
		for i := 0; i < s.FarmDisks; i++ {
			d := dev.NewDisk(k, dev.RZ57, per, nil)
			d.SetObs(o, fmt.Sprintf("RZ57-farm%d", i))
			farm = append(farm, d)
		}
	} else {
		main := dev.NewDisk(k, dev.RZ57, int64(s.DiskSegs*s.SegBlocks), bus)
		main.SetObs(o, "RZ57-main")
		farm = []dev.BlockDev{main}
	}
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, s.Vols, s.SegsPerVol, s.SegBlocks*lfs.BlockSize, bus)
	juke.SetObs(o, "")
	jukes := []jukebox.Footprint{juke}
	for i := 1; i < s.Libraries; i++ {
		extra := jukebox.MustNew(k, jukebox.MO6300, 2, s.Vols, s.SegsPerVol, s.SegBlocks*lfs.BlockSize, bus)
		extra.SetObs(o, fmt.Sprintf("%s-lib%d", extra.Profile().Name, i))
		jukes = append(jukes, extra)
	}
	cfg := core.Config{
		SegBlocks:         s.SegBlocks,
		Disks:             farm,
		StripeUnit:        s.StripeUnit,
		Parity:            s.Parity,
		Streams:           s.Streams,
		Jukeboxes:         jukes,
		Replicas:          s.Replicas,
		CacheSegs:         s.CacheSegs,
		MaxInodes:         4096,
		BufferBytes:       s.BufferBytes,
		AssemblyCopyRate:  hp370AssemblyCopyRate,
		UserCopyRate:      hp370UserCopyRate,
		GatherChunkBlocks: 1, // lfs_bmapv + block-at-a-time raw reads (§6.7)
		Obs:               o,
	}
	var staging *dev.Disk // nil when staging shares the main spindle
	switch kind {
	case stageOnRZ58:
		staging = dev.NewDisk(k, dev.RZ58, int64(s.StageSegs*s.SegBlocks), bus)
	case stageOnHP7958A:
		// HP-IB connected: a private channel, not the shared SCSI bus.
		staging = dev.NewDisk(k, dev.HP7958A, int64(s.StageSegs*s.SegBlocks), nil)
	}
	if staging != nil {
		if s.StripeUnit > 0 && s.FarmDisks > 1 {
			// A dedicated staging spindle relies on the concatenated
			// farm's contiguous per-component segment ranges.
			return &fsRig{k: k, err: fmt.Errorf("staging spindle configs require a concatenated farm (StripeUnit 0)")}
		}
		staging.SetObs(o, staging.Profile().Name+"-staging")
		cfg.Disks = append(cfg.Disks, staging)
		cfg.CacheSegs = s.StageSegs
		cfg.CacheSegLo = s.DiskSegs
		cfg.CacheSegHi = s.DiskSegs + s.StageSegs
	}
	r := &fsRig{k: k}
	return r.format(func(p *sim.Proc) error {
		hl, err := core.New(p, cfg, true)
		if err != nil {
			return err
		}
		r.hl, r.t = hl, wl.HLTarget("hl", hl)
		return nil
	})
}

// studyGeom is the geometry of a study rig: the fixed-size HighLight
// instances behind the ablations, the overload study and the policy
// shootout. Unlike the table rigs they do not follow Scale and carry no
// CPU copy model — the studies are about policy, not the HP 9000/370.
type studyGeom struct {
	segBlocks int
	disks     int  // RZ57 spindles in the farm
	diskSegs  int  // segments per spindle
	sharedBus bool // spindles and changers on one SCSI bus (the paper's wiring), else private channels
	libs      int  // MO6300 changers, two drives each
	vols      int  // cartridges per changer
	volSegs   int  // segments per cartridge
	cacheSegs int
	inodes    int
	bufBytes  int
}

// studyRig is a study rig's devices on a kernel, before any mount: the
// cells reach into them to install fault plans, enable write caches, and
// carry media images across a simulated power cut.
type studyRig struct {
	k     *sim.Kernel
	geom  studyGeom
	disks []*dev.Disk
	jukes []*jukebox.Jukebox
}

// newStudyRig builds the devices of g on a fresh kernel.
func newStudyRig(g studyGeom) *studyRig {
	k := sim.NewKernel()
	var bus *dev.Bus
	if g.sharedBus {
		bus = dev.NewBus(k, "scsi", dev.SCSIBusRate)
	}
	r := &studyRig{k: k, geom: g}
	for i := 0; i < g.disks; i++ {
		r.disks = append(r.disks, dev.NewDisk(k, dev.RZ57, int64(g.diskSegs*g.segBlocks), bus))
	}
	for i := 0; i < g.libs; i++ {
		r.jukes = append(r.jukes, jukebox.MustNew(k, jukebox.MO6300, 2, g.vols, g.volSegs, g.segBlocks*lfs.BlockSize, bus))
	}
	return r
}

// run formats HighLight over the rig's devices and runs body on it as the
// kernel's main process, then stops the kernel.
func (r *studyRig) run(tweak func(*core.Config), body func(*sim.Proc, *core.HighLight) error) error {
	return run(r.k, func(p *sim.Proc) error {
		hl, err := r.mount(p, true, tweak)
		if err != nil {
			return err
		}
		return body(p, hl)
	})
}

// mount formats (format=true) or remounts HighLight over the rig's
// devices; tweak, when not nil, adjusts the configuration first.
func (r *studyRig) mount(p *sim.Proc, format bool, tweak func(*core.Config)) (*core.HighLight, error) {
	cfg := core.Config{
		SegBlocks:   r.geom.segBlocks,
		CacheSegs:   r.geom.cacheSegs,
		MaxInodes:   r.geom.inodes,
		BufferBytes: r.geom.bufBytes,
	}
	for _, d := range r.disks {
		cfg.Disks = append(cfg.Disks, d)
	}
	for _, j := range r.jukes {
		cfg.Jukeboxes = append(cfg.Jukeboxes, j)
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return core.New(p, cfg, format)
}
