package migrate

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// runConcurrencySoak drives the parallel pipeline end to end: a 4-spindle
// striped farm with two tertiary I/O streams, the migrator daemon (two
// copy-out streams, per-segment reservation against the cleaner), the
// cleaner daemon, and demand-fetch readers (the segment cache is a fraction
// of what is migrated and the readers bypass the buffer cache; at least two
// fetches must be in flight at once), all concurrent in virtual time, under
// a transient fault plan on the jukebox. Every read must return a version
// of the file the model held at some instant between the read's start and its
// end (a read that waits for a fetch lets the writer in), the final verify
// must match the model exactly (zero loss), and the run must be perfectly
// repeatable: the returned digest covers file contents, device and
// service counters, and the final virtual clock.
func runConcurrencySoak(t *testing.T) string {
	const segBlocks = 16
	const seed = 4242
	k := sim.NewKernel()
	var spindles []dev.BlockDev
	for i := 0; i < 4; i++ {
		spindles = append(spindles, dev.NewDisk(k, dev.RZ57, int64(40*segBlocks), nil))
	}
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 6, 24, segBlocks*lfs.BlockSize, nil)
	cfg := core.Config{
		SegBlocks:   segBlocks,
		Disks:       spindles,
		Jukeboxes:   []jukebox.Footprint{juke},
		CacheSegs:   4, // far less than is migrated: readers demand-fetch
		MaxInodes:   512,
		BufferBytes: 1 << 20,
		StripeUnit:  8,
		Streams:     2,
	}

	// Transient faults only: every injected failure must be retried to
	// success, so no file may ever be lost.
	plan := fault.NewPlan(fault.Config{
		Seed:               seed,
		TransientReadRate:  0.03,
		TransientWriteRate: 0.03,
		MaxBurst:           2,
	})
	plan.InstallJukebox("mo", juke)
	plan.Start(k)

	model := map[string][]byte{}
	// versions lists every content each file has had, oldest first; the last
	// is the model's. A file being written (writing) may already read as its
	// last version or still as the one before.
	versions := map[string][][]byte{}
	writing := map[string]bool{}
	var names []string
	var digest string

	k.RunProc(func(p *sim.Proc) {
		hl, err := core.New(p, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		cleaner := hl.FS.AttachCleaner(8, 14)
		k.GoDaemon("cleaner", cleaner)

		m := NewMigrator(hl)
		m.Streams = 2
		m.MigrateInodes = true
		// Water marks above the clean-segment count keep the daemon
		// migrating on every poll — the soak wants continuous tertiary
		// traffic, not a realistic trigger.
		m.LowWaterSegs = 2 * hl.Amap.DiskSegs()
		m.HighWaterSegs = 2*hl.Amap.DiskSegs() + 2
		m.Interval = 2 * time.Second
		k.GoDaemon("migrator", m.Daemon)

		// Seed the namespace.
		rng := sim.NewRNG(seed)
		for i := 0; i < 18; i++ {
			name := fmt.Sprintf("/c%d", i)
			data := make([]byte, rng.Intn(12*lfs.BlockSize)+1)
			for j := range data {
				data[j] = byte(rng.Intn(256))
			}
			f, err := hl.FS.Create(p, name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(p, data, 0); err != nil {
				t.Fatal(err)
			}
			model[name] = data
			versions[name] = [][]byte{data}
			names = append(names, name)
		}
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}

		// Concurrent load: a writer churning dirt (so the cleaner and
		// migrator have work) and two demand-fetch readers verifying
		// migrated files against the model while migration is in flight.
		writer := func(p *sim.Proc) {
			wrng := sim.NewRNG(seed + 1)
			for i := 0; i < 60; i++ {
				p.Sleep(time.Duration(wrng.Intn(700)) * time.Millisecond)
				name := names[wrng.Intn(len(names))]
				cur := model[name]
				off := wrng.Intn(len(cur))
				patch := make([]byte, wrng.Intn(2*lfs.BlockSize)+1)
				for j := range patch {
					patch[j] = byte(wrng.Intn(256))
				}
				next := make([]byte, max(len(cur), off+len(patch)))
				copy(next, cur)
				copy(next[off:], patch)
				versions[name] = append(versions[name], next)
				writing[name] = true
				f, err := hl.FS.Open(p, name)
				if err != nil {
					t.Errorf("writer open %s: %v", name, err)
					return
				}
				if _, err := f.WriteAt(p, patch, int64(off)); err != nil {
					t.Errorf("writer write %s: %v", name, err)
					return
				}
				writing[name] = false
				model[name] = next
			}
		}
		reader := func(id int) func(p *sim.Proc) {
			return func(p *sim.Proc) {
				rrng := sim.NewRNG(seed + 10 + uint64(id))
				for i := 0; i < 40; i++ {
					p.Sleep(time.Duration(rrng.Intn(900)) * time.Millisecond)
					name := names[rrng.Intn(len(names))]
					f, err := hl.FS.Open(p, name)
					if err != nil {
						t.Errorf("reader %d open %s: %v", id, name, err)
						return
					}
					// Past the buffer cache, so that a migrated file is read
					// through the segment cache and demand-fetched if evicted.
					hl.FS.DropFileBuffers(p, f.Inum())
					// Files only grow, so every version this read may see
					// starts with len(got) bytes.
					from := len(versions[name]) - 1
					if writing[name] {
						from--
					}
					got := make([]byte, len(model[name]))
					if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
						t.Errorf("reader %d read %s: %v", id, name, err)
						return
					}
					if !slices.ContainsFunc(versions[name][from:], func(v []byte) bool { return bytes.Equal(got, v[:len(got)]) }) {
						t.Errorf("reader %d: %s matches no version written during the read (data loss)", id, name)
						return
					}
				}
			}
		}
		done := k.NewCond("soak.done")
		running := 3
		spawn := func(name string, fn func(p *sim.Proc)) {
			k.Go(name, func(cp *sim.Proc) {
				fn(cp)
				running--
				done.Broadcast()
			})
		}
		spawn("writer", writer)
		spawn("reader-0", reader(0))
		spawn("reader-1", reader(1))
		for running > 0 {
			done.Wait(p)
		}

		// Quiesce: finish outstanding staging/copy-outs, then verify
		// every file one last time and fold everything observable into
		// the digest.
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			f, err := hl.FS.Open(p, name)
			if err != nil {
				t.Fatalf("final open %s: %v", name, err)
			}
			want := model[name]
			got := make([]byte, len(want))
			if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
				t.Fatalf("final read %s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("final verify: %s diverged from model (data loss)", name)
			}
		}

		ss := hl.Svc.Stats()
		if ss.RetriesExhausted != 0 {
			t.Fatalf("%d operations exhausted the retry budget; transient-only plan must always recover", ss.RetriesExhausted)
		}
		// Readers wait for their fetches with the file system lock
		// released, so fetches overlap.
		if ss.MaxPending < 2 {
			t.Fatalf("%d fetches, at most %d in flight at once; readers are not overlapping their tertiary waits", ss.Fetches, ss.MaxPending)
		}
		pc := plan.DeviceCounts("mo")
		if pc.Transient == 0 {
			t.Fatal("fault plan injected no transient faults; raise rates or change the seed")
		}

		h := sha256.New()
		for _, name := range names {
			fmt.Fprintf(h, "%s:%x\n", name, sha256.Sum256(model[name]))
		}
		fmt.Fprintf(h, "svc:%+v faults:%+v juke:%+v\n", ss, pc, juke.Stats())
		for i, d := range spindles {
			fmt.Fprintf(h, "disk%d:%+v\n", i, d.(*dev.Disk).Stats())
		}
		digest = fmt.Sprintf("%x t=%v retries=%d", h.Sum(nil), p.Now(), ss.TransientRetries)
	})
	k.Stop()
	return digest
}

// TestConcurrentPipelineSoak is the race-enabled concurrency soak of the
// parallel migration pipeline (run under -race by `make verify`): the
// migrator's copy-out streams, the cleaner, demand fetches, and striped
// parallel dispatch all interleave under injected transient faults with
// zero loss, and a double run produces the identical digest — the
// parallelism lives entirely in deterministic virtual time.
func TestConcurrentPipelineSoak(t *testing.T) {
	d1 := runConcurrencySoak(t)
	d2 := runConcurrencySoak(t)
	if d1 != d2 {
		t.Fatalf("double run diverged:\n  run 1: %s\n  run 2: %s", d1, d2)
	}
}
