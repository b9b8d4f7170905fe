// Relstore: a miniature POSTGRES-style no-overwrite storage manager
// hosted on HighLight — the integration the paper anticipates in §2/§8.1
// ("perhaps Inversion and/or POSTGRES will be hosted on top of
// HighLight") and the workload §5.2 uses to motivate sub-file migration:
// "database files tend to be large, may be accessed randomly and
// incompletely, and in some systems are never overwritten."
//
// The store appends new tuple versions instead of updating in place
// (Stonebraker's no-overwrite storage manager), so a relation file grows
// a cold prefix of superseded versions and a hot tail of current ones —
// exactly the shape block-range migration exploits. Old versions remain
// addressable: "time travel" reads of a historical snapshot transparently
// demand-fetch the archived pages back from the jukebox.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/migrate"
	"repro/internal/sim"
)

const (
	pageSize      = lfs.BlockSize
	tuplesPerPage = 64
	tupleSize     = pageSize / tuplesPerPage // 64 bytes
)

// relation is an append-only heap of tuple versions plus an in-memory
// primary index (key -> latest page/slot) and a version chain.
type relation struct {
	f     *lfs.File
	pages int
	// index[key] = list of (page, slot) versions, newest last.
	index map[uint32][]location
	buf   []byte
}

type location struct {
	page int
	slot int
}

func newRelation(p *sim.Proc, hl *core.HighLight, path string) (*relation, error) {
	f, err := hl.FS.Create(p, path)
	if err != nil {
		return nil, err
	}
	return &relation{f: f, index: make(map[uint32][]location), buf: make([]byte, pageSize)}, nil
}

// insert appends a new version of key with value; old versions are never
// touched (no-overwrite).
func (r *relation) insert(p *sim.Proc, key uint32, value uint64) error {
	slot := 0
	if r.pages > 0 {
		slot = len(r.index) % tuplesPerPage // naive fill heuristic
	}
	// Always append to the last page until full, then start a new one.
	page := r.pages - 1
	if page < 0 || r.slotsUsed(page) >= tuplesPerPage {
		page = r.pages
		r.pages++
		for i := range r.buf {
			r.buf[i] = 0
		}
	} else {
		if _, err := r.f.ReadAt(p, r.buf, int64(page)*pageSize); err != nil && err != io.EOF {
			return err
		}
	}
	slot = r.slotsUsed(page)
	off := slot * tupleSize
	binary.LittleEndian.PutUint32(r.buf[off:], key+1) // +1: 0 means empty
	binary.LittleEndian.PutUint64(r.buf[off+8:], value)
	if _, err := r.f.WriteAt(p, r.buf, int64(page)*pageSize); err != nil {
		return err
	}
	r.index[key] = append(r.index[key], location{page, slot})
	return nil
}

// slotsUsed counts occupied slots on a page via the index (cheap bookkeeping
// for the demo; a real heap keeps a page header).
func (r *relation) slotsUsed(page int) int {
	n := 0
	for _, chain := range r.index {
		for _, l := range chain {
			if l.page == page {
				n++
			}
		}
	}
	return n
}

// read returns the version of key at versionBack steps from the newest
// (0 = current, 1 = previous, ... — "time travel").
func (r *relation) read(p *sim.Proc, key uint32, versionBack int) (uint64, error) {
	chain := r.index[key]
	if len(chain) == 0 {
		return 0, fmt.Errorf("relstore: no such key %d", key)
	}
	i := len(chain) - 1 - versionBack
	if i < 0 {
		return 0, fmt.Errorf("relstore: key %d has only %d versions", key, len(chain))
	}
	loc := chain[i]
	if _, err := r.f.ReadAt(p, r.buf, int64(loc.page)*pageSize); err != nil && err != io.EOF {
		return 0, err
	}
	off := loc.slot * tupleSize
	if got := binary.LittleEndian.Uint32(r.buf[off:]); got != key+1 {
		return 0, fmt.Errorf("relstore: page %d slot %d holds key %d, want %d", loc.page, loc.slot, got-1, key)
	}
	return binary.LittleEndian.Uint64(r.buf[off+8:]), nil
}

func main() {
	k := sim.NewKernel()
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	disk := dev.NewDisk(k, dev.RZ57, 96*256, bus)
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 64, 256*lfs.BlockSize, bus)

	k.RunProc(func(p *sim.Proc) {
		hl, err := core.New(p, core.Config{
			SegBlocks: 256,
			Disks:     []dev.BlockDev{disk},
			Jukeboxes: []jukebox.Footprint{juke},
			CacheSegs: 12,
			MaxInodes: 256,
		}, true)
		if err != nil {
			log.Fatal(err)
		}
		tracker := migrate.NewRangeTracker(k)
		hl.FS.OnAccess = tracker.Hook

		rel, err := newRelation(p, hl, "/pg/orders")
		if err != nil {
			if e := hl.FS.Mkdir(p, "/pg"); e != nil {
				log.Fatal(e)
			}
			if rel, err = newRelation(p, hl, "/pg/orders"); err != nil {
				log.Fatal(err)
			}
		}

		// Epoch 1: bulk load 3000 tuples, then update every key 3 times.
		// No-overwrite: every update appends a version.
		const keys = 3000
		for key := uint32(0); key < keys; key++ {
			if err := rel.insert(p, key, uint64(key)*10); err != nil {
				log.Fatal(err)
			}
		}
		for ver := 1; ver <= 3; ver++ {
			for key := uint32(0); key < keys; key += 3 {
				if err := rel.insert(p, key, uint64(key)*10+uint64(ver)); err != nil {
					log.Fatal(err)
				}
			}
		}
		if err := hl.FS.Sync(p); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("relation holds %d pages (%d KB); %d keys, up to 4 versions each\n",
			rel.pages, rel.pages*4, keys)

		// Time passes; current-version queries touch only the hot tail.
		p.Sleep(2 * time.Hour)
		rng := sim.NewRNG(41)
		for q := 0; q < 300; q++ {
			key := uint32(rng.Intn(keys/3)) * 3
			if _, err := rel.read(p, key, 0); err != nil {
				log.Fatal(err)
			}
		}

		// Dormant tuple versions migrate at block granularity (§5.2:
		// "dormant tuples in a relation should be eligible for migration
		// to tertiary storage; this requires a migration unit finer than
		// the file").
		br := &migrate.BlockRange{Tracker: tracker, MinAge: 30 * time.Minute}
		cold, err := br.ColdRefs(p, hl, rel.f.Inum())
		if err != nil {
			log.Fatal(err)
		}
		staged, err := hl.MigrateRefs(p, cold)
		if err != nil {
			log.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("migrated %.1f MB of dormant tuple versions to the jukebox\n", float64(staged)/(1<<20))

		// Cold-start the caches so the residency split is visible: drop
		// the buffer cache and eject every cached tertiary segment.
		if err := hl.FS.FlushCaches(p); err != nil {
			log.Fatal(err)
		}
		if _, err := hl.Svc.EjectAll(); err != nil {
			log.Fatal(err)
		}

		// Current-version queries still run at disk speed...
		t0 := p.Now()
		for q := 0; q < 100; q++ {
			key := uint32(rng.Intn(keys/3)) * 3
			v, err := rel.read(p, key, 0)
			if err != nil {
				log.Fatal(err)
			}
			if v != uint64(key)*10+3 {
				log.Fatalf("key %d current version = %d", key, v)
			}
		}
		fmt.Printf("100 current-version reads: %.2f virtual s (%d tertiary fetches)\n",
			(p.Now() - t0).Seconds(), hl.Svc.Stats().Fetches)

		// ...while a historical (time-travel) scan transparently pulls
		// the archived versions back.
		t0 = p.Now()
		verified := 0
		for key := uint32(0); key < keys; key += 97 {
			v, err := rel.read(p, key, len(rel.index[key])-1) // oldest version
			if err != nil {
				log.Fatal(err)
			}
			if v != uint64(key)*10 {
				log.Fatalf("key %d original version = %d, want %d", key, v, key*10)
			}
			verified++
		}
		fmt.Printf("time-travel scan verified %d original tuples in %.1f virtual s (%d tertiary fetches)\n",
			verified, (p.Now() - t0).Seconds(), hl.Svc.Stats().Fetches)
	})
	k.Stop()
}
