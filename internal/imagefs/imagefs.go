// Package imagefs persists a HighLight instance as an image directory so
// the command-line tools can operate on a file system across process runs:
// config.json (geometry), disk.img (the disk farm's sparse contents) and
// juke.img (the jukebox media).
package imagefs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// Config is the persisted geometry of an image.
type Config struct {
	SegBlocks  int `json:"seg_blocks"`
	DiskSegs   int `json:"disk_segs"`
	CacheSegs  int `json:"cache_segs"`
	MaxInodes  int `json:"max_inodes"`
	Vols       int `json:"vols"`
	SegsPerVol int `json:"segs_per_vol"`
	Drives     int `json:"drives"`
	// ExtraDiskSegs lists disks added on-line with "hlfs grow" (§6.4),
	// each in segments; they are re-attached in order at load time.
	ExtraDiskSegs []int `json:"extra_disk_segs,omitempty"`
	// Spindles splits the DiskSegs capacity over that many farm spindles
	// (spindle 0 persists as disk.img, the rest as farm1.img, ...).
	// StripeUnit interleaves them with that stripe unit in 4 KB blocks
	// (0 concatenates) and Parity adds a rotating parity unit per row.
	// Streams runs that many concurrent tertiary I/O streams at mount.
	// Zero values keep the historical single-spindle, single-stream image.
	Spindles   int  `json:"spindles,omitempty"`
	StripeUnit int  `json:"stripe_unit,omitempty"`
	Parity     bool `json:"parity,omitempty"`
	Streams    int  `json:"streams,omitempty"`
	// Libraries is the total number of identical MO changers; values
	// beyond 1 persist as juke1.img, juke2.img, ... Replicas is the
	// tertiary copy count per staged segment (<2 disables replication).
	Libraries int `json:"libraries,omitempty"`
	Replicas  int `json:"replicas,omitempty"`
	// ReplicaCatalog persists the in-memory replica map across mounts:
	// each entry is [primary, replica, replica...] tertiary indices,
	// sorted by primary.
	ReplicaCatalog [][]int `json:"replica_catalog,omitempty"`
	// EpochNs is the virtual time at the last save: resumed runs start
	// here so file ages keep advancing monotonically across invocations.
	EpochNs int64 `json:"epoch_ns"`
}

// ErrBadConfig is a config.json whose geometry no instance can have: a
// negative or out-of-range count, or a farm or tertiary tier that cannot
// be assembled. Load and Init return it, wrapped with the field, before any
// device is built.
var ErrBadConfig = errors.New("imagefs: bad configuration")

// The largest geometry an image may describe: each bounds what building its
// devices allocates up front (the disks' extent tables, the volumes' segment
// slots), far above any image the tools make.
const (
	maxSegBlocks  = 1 << 12 // 16 MB segments
	maxDiskBlocks = 1 << 24 // 64 GB of disk, extra disks included
	maxTertSegs   = 1 << 20 // segments over all libraries
	maxDevices    = 64      // spindles, extra disks, drives, libraries or streams
	maxInodes     = 1 << 24
)

// validate checks every geometry field of cfg against what the devices and
// the farm can be built from.
func (cfg Config) validate() error {
	bad := func(field string, v any, want string) error {
		return fmt.Errorf("%w: %s %v: %s", ErrBadConfig, field, v, want)
	}
	tert := maxTertSegs / max(cfg.Libraries, 1)
	disk := maxDiskBlocks / max(cfg.SegBlocks, 1) // segments, extra disks included
	type field struct {
		name      string
		v, lo, hi int
	}
	fields := []field{
		{"seg_blocks", cfg.SegBlocks, 1, maxSegBlocks},
		{"libraries", cfg.Libraries, 0, maxDevices},
		{"replicas", cfg.Replicas, 0, max(cfg.Libraries, 1)},
		{"vols", cfg.Vols, 1, tert},
		{"segs_per_vol", cfg.SegsPerVol, 1, tert / max(cfg.Vols, 1)},
		{"drives", cfg.Drives, 1, maxDevices},
		{"spindles", cfg.Spindles, 0, maxDevices},
		{"stripe_unit", cfg.StripeUnit, 0, maxSegBlocks},
		{"streams", cfg.Streams, 0, maxDevices},
		{"max_inodes", cfg.MaxInodes, 0, maxInodes},
		{"disk_segs", cfg.DiskSegs, 1, disk},
		{"cache_segs", cfg.CacheSegs, 0, cfg.DiskSegs},
		{"extra_disk_segs", len(cfg.ExtraDiskSegs), 0, maxDevices},
	}
	disk -= max(cfg.DiskSegs, 0)
	for i, n := range cfg.ExtraDiskSegs {
		fields = append(fields, field{fmt.Sprintf("extra_disk_segs[%d]", i), n, 1, disk})
		disk -= max(n, 0)
	}
	for _, f := range fields {
		if f.v < f.lo || f.v > f.hi {
			return bad(f.name, f.v, fmt.Sprintf("want %d..%d", f.lo, f.hi))
		}
	}
	if cfg.StripeUnit > 0 && cfg.Spindles < 2 {
		return bad("stripe_unit", cfg.StripeUnit, "needs 2 or more spindles")
	}
	if cfg.Parity && (cfg.StripeUnit == 0 || cfg.Spindles < 3) {
		return bad("parity", cfg.Parity, "needs a stripe_unit and 3 or more spindles")
	}
	if cfg.EpochNs < 0 {
		return bad("epoch_ns", cfg.EpochNs, "want >= 0")
	}
	return nil
}

// DefaultConfig is a comfortable laptop-scale instance: a 256 MB disk and
// a 4x64 MB MO jukebox with 1 MB segments.
func DefaultConfig() Config {
	return Config{
		SegBlocks:  256,
		DiskSegs:   256,
		CacheSegs:  32,
		MaxInodes:  4096,
		Vols:       4,
		SegsPerVol: 64,
		Drives:     2,
	}
}

// Instance is a loaded image: the HighLight file system plus its devices.
type Instance struct {
	Cfg   Config
	HL    *core.HighLight
	Disk  *dev.Disk
	Farm  []*dev.Disk // farm spindles beyond the first, persisted as farm1.img, ...
	Extra []*dev.Disk // on-line additions, persisted as disk1.img, ...
	Juke  *jukebox.Jukebox
	// ExtraJukes holds libraries beyond the first, persisted as
	// juke1.img, juke2.img, ...
	ExtraJukes []*jukebox.Jukebox
	k          *sim.Kernel
	dir        string
}

// medium is a device whose contents persist as one image file.
type medium interface {
	SaveStore(w io.Writer) error
	LoadStore(r io.Reader) error
}

// imageFile is one device and the file, in the image directory, that holds it.
type imageFile struct {
	name string
	dev  medium
}

// media lists every device with its image file, in the order Save writes
// and Load reads them.
func (inst *Instance) media() []imageFile {
	files := []imageFile{{"disk.img", inst.Disk}}
	for i, d := range inst.Farm {
		files = append(files, imageFile{fmt.Sprintf("farm%d.img", i+1), d})
	}
	for i, d := range inst.Extra {
		files = append(files, imageFile{fmt.Sprintf("disk%d.img", i+1), d})
	}
	files = append(files, imageFile{"juke.img", inst.Juke})
	for i, j := range inst.ExtraJukes {
		files = append(files, imageFile{fmt.Sprintf("juke%d.img", i+1), j})
	}
	return files
}

// AddDisk grows the instance by a fresh disk of segs segments (§6.4),
// recording it in the image configuration so reloads re-attach it. A size
// the grown image could not be loaded with is ErrBadConfig.
func (inst *Instance) AddDisk(p *sim.Proc, segs int) error {
	grown := inst.Cfg
	grown.ExtraDiskSegs = append(slices.Clone(grown.ExtraDiskSegs), segs)
	if err := grown.validate(); err != nil {
		return err
	}
	d := dev.NewDisk(inst.k, dev.RZ58, int64(segs*inst.Cfg.SegBlocks), nil)
	if _, err := inst.HL.AddDisk(p, d); err != nil {
		return err
	}
	inst.Extra = append(inst.Extra, d)
	inst.Cfg.ExtraDiskSegs = append(inst.Cfg.ExtraDiskSegs, segs)
	return nil
}

// Init creates a fresh formatted image in dir (which must not already hold
// one).
func Init(k *sim.Kernel, dir string, cfg Config) (*Instance, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfgPath := filepath.Join(dir, "config.json")
	if _, err := os.Stat(cfgPath); err == nil {
		return nil, fmt.Errorf("imagefs: %s already holds an image", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	inst, err := build(k, dir, cfg, true)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		return nil, err
	}
	return inst, inst.Save()
}

// Load mounts an existing image.
func Load(k *sim.Kernel, dir string) (*Instance, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "config.json"))
	if err != nil {
		return nil, fmt.Errorf("imagefs: %w (is %s an image directory?)", err, dir)
	}
	var cfg Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k.AdvanceTo(sim.Time(cfg.EpochNs))
	inst, err := buildDevices(k, dir, cfg)
	if err != nil {
		return nil, err
	}
	for _, m := range inst.media() {
		f, err := os.Open(filepath.Join(dir, m.name))
		if err != nil {
			return nil, err
		}
		if err := errors.Join(m.dev.LoadStore(f), f.Close()); err != nil {
			return nil, err
		}
	}
	return mount(k, inst, false)
}

func build(k *sim.Kernel, dir string, cfg Config, format bool) (*Instance, error) {
	inst, err := buildDevices(k, dir, cfg)
	if err != nil {
		return nil, err
	}
	return mount(k, inst, format)
}

func buildDevices(k *sim.Kernel, dir string, cfg Config) (*Instance, error) {
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	inst := &Instance{Cfg: cfg, k: k, dir: dir}
	if cfg.Spindles > 1 {
		// Farm spindles on private channels, capacity split evenly (the
		// shared SCSI bus would cap the farm at about two disks' worth).
		per := int64(cfg.DiskSegs * cfg.SegBlocks / cfg.Spindles)
		inst.Disk = dev.NewDisk(k, dev.RZ57, per, nil)
		for i := 1; i < cfg.Spindles; i++ {
			inst.Farm = append(inst.Farm, dev.NewDisk(k, dev.RZ57, per, nil))
		}
	} else {
		inst.Disk = dev.NewDisk(k, dev.RZ57, int64(cfg.DiskSegs*cfg.SegBlocks), bus)
	}
	for _, segs := range cfg.ExtraDiskSegs {
		inst.Extra = append(inst.Extra, dev.NewDisk(k, dev.RZ58, int64(segs*cfg.SegBlocks), bus))
	}
	juke, err := jukebox.New(k, jukebox.MO6300, cfg.Drives, cfg.Vols, cfg.SegsPerVol,
		cfg.SegBlocks*lfs.BlockSize, bus)
	if err != nil {
		return nil, fmt.Errorf("imagefs: %w", err)
	}
	inst.Juke = juke
	for i := 1; i < cfg.Libraries; i++ {
		extra, err := jukebox.New(k, jukebox.MO6300, cfg.Drives, cfg.Vols, cfg.SegsPerVol,
			cfg.SegBlocks*lfs.BlockSize, bus)
		if err != nil {
			return nil, fmt.Errorf("imagefs: library %d: %w", i, err)
		}
		inst.ExtraJukes = append(inst.ExtraJukes, extra)
	}
	return inst, nil
}

func mount(k *sim.Kernel, inst *Instance, format bool) (*Instance, error) {
	var err error
	disks := []dev.BlockDev{inst.Disk}
	for _, d := range inst.Farm {
		disks = append(disks, d)
	}
	for _, d := range inst.Extra {
		disks = append(disks, d)
	}
	jukes := []jukebox.Footprint{inst.Juke}
	for _, j := range inst.ExtraJukes {
		jukes = append(jukes, j)
	}
	k.RunProc(func(p *sim.Proc) {
		inst.HL, err = core.New(p, core.Config{
			SegBlocks:  inst.Cfg.SegBlocks,
			Disks:      disks,
			StripeUnit: inst.Cfg.StripeUnit,
			Parity:     inst.Cfg.Parity,
			Streams:    inst.Cfg.Streams,
			Jukeboxes:  jukes,
			CacheSegs:  inst.Cfg.CacheSegs,
			MaxInodes:  inst.Cfg.MaxInodes,
			Replicas:   inst.Cfg.Replicas,
		}, format)
	})
	if err != nil {
		return nil, err
	}
	if !format && len(inst.Cfg.ReplicaCatalog) > 0 {
		m := make(map[int][]int, len(inst.Cfg.ReplicaCatalog))
		for _, row := range inst.Cfg.ReplicaCatalog {
			if len(row) > 1 {
				m[row[0]] = row[1:]
			}
		}
		inst.HL.RestoreReplicaCatalog(m)
	}
	return inst, nil
}

// Save checkpoints nothing by itself — callers checkpoint through the FS —
// but persists the device contents and the virtual epoch back to the
// image files.
func (inst *Instance) Save() error {
	inst.Cfg.EpochNs = int64(inst.k.Now())
	catalog := inst.HL.ReplicaCatalog()
	prims := make([]int, 0, len(catalog))
	for p := range catalog {
		prims = append(prims, p)
	}
	sort.Ints(prims)
	inst.Cfg.ReplicaCatalog = nil
	for _, p := range prims {
		inst.Cfg.ReplicaCatalog = append(inst.Cfg.ReplicaCatalog, append([]int{p}, catalog[p]...))
	}
	meta, err := json.MarshalIndent(inst.Cfg, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(inst.dir, "config.json"), meta, 0o644); err != nil {
		return err
	}
	for _, m := range inst.media() {
		f, err := os.Create(filepath.Join(inst.dir, m.name))
		if err != nil {
			return err
		}
		if err := errors.Join(m.dev.SaveStore(f), f.Close()); err != nil {
			return err
		}
	}
	return nil
}
