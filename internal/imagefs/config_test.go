package imagefs

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// loadConfig loads an image directory holding only config.json with raw.
func loadConfig(t *testing.T, raw []byte) error {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "config.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(sim.NewKernel(), dir)
	return err
}

// TestBadConfigIsRefused: a config.json with a geometry no instance can have
// is ErrBadConfig naming the field, from Load, Init and AddDisk, before any
// device is built. A negative disk_segs or extra_disk_segs entry used to
// panic in the disk's constructor (makeslice: len out of range), a negative
// epoch_ns in the kernel.
func TestBadConfigIsRefused(t *testing.T) {
	for _, c := range []struct {
		field string
		edit  func(*Config)
	}{
		{"seg_blocks", func(c *Config) { c.SegBlocks = 0 }},
		{"seg_blocks", func(c *Config) { c.SegBlocks = 1 << 20 }},
		{"disk_segs", func(c *Config) { c.DiskSegs = -1 }},
		{"disk_segs", func(c *Config) { c.DiskSegs = 1 << 40 }},
		{"extra_disk_segs[1]", func(c *Config) { c.ExtraDiskSegs = []int{4, -2} }},
		{"extra_disk_segs[0]", func(c *Config) { c.ExtraDiskSegs = []int{1 << 30} }},
		{"cache_segs", func(c *Config) { c.CacheSegs = -1 }},
		{"cache_segs", func(c *Config) { c.CacheSegs = c.DiskSegs + 1 }},
		{"max_inodes", func(c *Config) { c.MaxInodes = -5 }},
		{"vols", func(c *Config) { c.Vols = 0 }},
		{"segs_per_vol", func(c *Config) { c.SegsPerVol = -1 }},
		{"segs_per_vol", func(c *Config) { c.SegsPerVol = 1 << 30 }},
		{"drives", func(c *Config) { c.Drives = 0 }},
		{"spindles", func(c *Config) { c.Spindles = -3 }},
		{"stripe_unit", func(c *Config) { c.StripeUnit = -1 }},
		{"stripe_unit", func(c *Config) { c.StripeUnit = 8 }},
		{"parity", func(c *Config) { c.Spindles, c.StripeUnit, c.Parity = 2, 8, true }},
		{"streams", func(c *Config) { c.Streams = -1 }},
		{"libraries", func(c *Config) { c.Libraries = -1 }},
		{"libraries", func(c *Config) { c.Libraries = 1000 }},
		{"replicas", func(c *Config) { c.Libraries, c.Replicas = 2, 3 }},
		{"epoch_ns", func(c *Config) { c.EpochNs = -1 }},
	} {
		cfg := smallCfg()
		c.edit(&cfg)
		raw, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = loadConfig(t, raw)
		if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), c.field+" ") {
			t.Errorf("Load of a config with a bad %s: %v, want ErrBadConfig naming it", c.field, err)
		}
		dir := filepath.Join(t.TempDir(), "img")
		if _, err := Init(sim.NewKernel(), dir, cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Init of a config with a bad %s: %v, want ErrBadConfig", c.field, err)
		}
		if _, err := os.Stat(dir); err == nil {
			t.Errorf("Init of a config with a bad %s created the image directory", c.field)
		}
	}
	// Growing an image by a disk it could not be loaded with is refused too
	// (hlfs grow -3 panicked in the disk's constructor).
	k := sim.NewKernel()
	inst, err := Init(k, t.TempDir(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	k.RunProc(func(p *sim.Proc) {
		for _, segs := range []int{-3, 0, 1 << 30} {
			if err := inst.AddDisk(p, segs); !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "extra_disk_segs[0] ") {
				t.Errorf("AddDisk(%d) = %v, want ErrBadConfig naming extra_disk_segs[0]", segs, err)
			}
		}
		if err := inst.AddDisk(p, 16); err != nil || len(inst.Cfg.ExtraDiskSegs) != 1 {
			t.Errorf("AddDisk(16) = %v with extra disks %v", err, inst.Cfg.ExtraDiskSegs)
		}
	})
	k.Stop()
	// The geometries the tools make pass, and Load goes on to the media.
	for _, cfg := range []Config{smallCfg(), DefaultConfig(),
		{SegBlocks: 16, DiskSegs: 64, Vols: 2, SegsPerVol: 16, Drives: 2, Spindles: 4, StripeUnit: 8, Parity: true,
			Streams: 2, Libraries: 2, Replicas: 2, ExtraDiskSegs: []int{32, 32}}} {
		raw, _ := json.Marshal(cfg)
		if err := loadConfig(t, raw); errors.Is(err, ErrBadConfig) || !errors.Is(err, os.ErrNotExist) {
			t.Errorf("Load of %+v without media: %v, want a missing image file", cfg, err)
		}
	}
}

// FuzzImagefsConfig: Load of any config.json returns an error (the directory
// holds no device images) and never panics.
func FuzzImagefsConfig(f *testing.F) {
	for _, c := range []Config{smallCfg(), DefaultConfig()} {
		raw, _ := json.Marshal(c)
		f.Add(raw)
	}
	f.Add([]byte(`{"seg_blocks":16,"disk_segs":-4,"vols":2,"segs_per_vol":16,"drives":2}`))
	f.Add([]byte(`{"seg_blocks":16,"disk_segs":64,"vols":2,"segs_per_vol":16,"drives":2,"extra_disk_segs":[8,-1]}`))
	f.Add([]byte(`{"seg_blocks":16,"disk_segs":64,"vols":2,"segs_per_vol":16,"drives":2,"epoch_ns":-1}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := loadConfig(t, raw); err == nil {
			t.Fatal("Load succeeded without device images")
		}
	})
}
