package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/svc"
)

// HP9000/370 CPU copy costs, as calibrated in internal/bench so base LFS
// lands on Table 2's sequential rates.
const (
	hp370AssemblyCopyRate = 1880 * 1024
	hp370UserCopyRate     = 3150 * 1024
)

// rigSpec describes the hardware and file-system configuration of one
// workload at one scale. Everything is built from the public constructors;
// nothing here is shared with internal/bench.
type rigSpec struct {
	SegBlocks   int
	Disks       []diskSpec // the farm, in component order
	StripeUnit  int        // 0 = concatenated
	Parity      bool
	StageOnLast bool // the last disk is a dedicated staging spindle holding the segment cache
	CacheSegs   int
	BufferBytes int
	MaxInodes   int
	Libraries   int // MO changers, two drives each
	JukePerBus  bool
	Vols        int
	SegsPerVol  int
	Replicas    int
	Streams     int
	VolStripe   int
}

type diskSpec struct {
	Prof   dev.DiskProfile
	Segs   int
	OnSCSI bool // on the shared SCSI bus (else a private channel)
}

// rig is one rep's freshly built system and the handles the ledger reads.
type rig struct {
	k     *sim.Kernel
	obs   *obs.Obs
	hl    *core.HighLight
	fe    *svc.FrontEnd // serve only
	disks []*dev.Disk
	buses []*dev.Bus
	jukes []*jukebox.Jukebox
	rec   *recorder
	fs    fsProbe

	fetchWaits []sim.Time // exact demand-fetch waits, from the service's Notify hook
}

// build assembles the devices and formats HighLight on them. It must run
// on a proc of r.k. With traced set, every farm component and changer is
// wrapped in a timing decorator and obs retains its spans.
func (spec rigSpec) build(p *sim.Proc, rec *recorder, traced bool) (*rig, error) {
	k := p.Kernel()
	r := &rig{k: k, obs: obs.New(k), rec: rec}
	if traced {
		r.obs.EnableTrace()
	}
	scsi := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	r.buses = append(r.buses, scsi)

	var farm []dev.BlockDev
	farmSegs := 0
	for i, ds := range spec.Disks {
		var bus *dev.Bus
		if ds.OnSCSI {
			bus = scsi
		}
		d := dev.NewDisk(k, ds.Prof, int64(ds.Segs*spec.SegBlocks), bus)
		d.SetObs(r.obs, fmt.Sprintf("%s-%d", ds.Prof.Name, i))
		r.disks = append(r.disks, d)
		if traced {
			farm = append(farm, diskProbe{Disk: d, rec: rec})
		} else {
			farm = append(farm, d)
		}
		farmSegs += ds.Segs
	}

	var jukes []jukebox.Footprint
	for i := 0; i < spec.Libraries; i++ {
		bus := scsi
		if spec.JukePerBus {
			bus = dev.NewBus(k, fmt.Sprintf("scsi-lib%d", i), dev.SCSIBusRate)
			r.buses = append(r.buses, bus)
		}
		j := jukebox.MustNew(k, jukebox.MO6300, 2, spec.Vols, spec.SegsPerVol, spec.SegBlocks*lfs.BlockSize, bus)
		track := ""
		if i > 0 {
			track = fmt.Sprintf("%s-lib%d", j.Profile().Name, i)
		}
		j.SetObs(r.obs, track)
		r.jukes = append(r.jukes, j)
		if traced {
			// Name the library as core would have named the bare device,
			// so audit records and breaker labels do not depend on tracing.
			name := fmt.Sprintf("%s[%d]", j.Profile().Name, i)
			jukes = append(jukes, jukebox.NewLibrary(i, name, jukeProbe{Jukebox: j, rec: rec}))
		} else {
			jukes = append(jukes, j)
		}
	}

	cfg := core.Config{
		SegBlocks:         spec.SegBlocks,
		Disks:             farm,
		StripeUnit:        spec.StripeUnit,
		Parity:            spec.Parity,
		Streams:           spec.Streams,
		VolStripe:         spec.VolStripe,
		Jukeboxes:         jukes,
		Replicas:          spec.Replicas,
		CacheSegs:         spec.CacheSegs,
		MaxInodes:         spec.MaxInodes,
		BufferBytes:       spec.BufferBytes,
		AssemblyCopyRate:  hp370AssemblyCopyRate,
		UserCopyRate:      hp370UserCopyRate,
		GatherChunkBlocks: 1, // lfs_bmapv + block-at-a-time raw reads (§6.7)
		Obs:               r.obs,
	}
	if spec.StageOnLast {
		last := spec.Disks[len(spec.Disks)-1].Segs
		cfg.CacheSegs = last
		cfg.CacheSegLo = farmSegs - last
		cfg.CacheSegHi = farmSegs
	}
	hl, err := core.New(p, cfg, true)
	if err != nil {
		return nil, fmt.Errorf("building HighLight: %w", err)
	}
	r.hl = hl
	r.fs = fsProbe{fs: hl.FS, rec: rec}
	hl.Svc.Notify = func(tag int, waited sim.Time, done bool) {
		if done && rec.armed {
			r.fetchWaits = append(r.fetchWaits, waited)
		}
	}
	return r, nil
}

// ejectAll discards every clean cache line and drops the buffer cache, so
// the next reads of migrated data demand-fetch from the changer.
func (r *rig) ejectAll(p *sim.Proc) error {
	for _, l := range r.hl.Cache.Lines() {
		if l.Staging || l.Pins > 0 {
			continue
		}
		if err := r.hl.Svc.Eject(l.Tag); err != nil {
			return err
		}
	}
	return r.hl.FS.FlushCaches(p)
}
