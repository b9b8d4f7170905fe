package lfs

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// The pointer-block reserve (buffer.go): tests over a tertDev whose address
// map has a tertiary region, so that Migratev gives blocks tertiary addresses.

// checkBufferCache verifies the invariants stated in buffer.go.
func checkBufferCache(fs *FS) error {
	dirty := 0
	for _, l := range []*lruList{&fs.lru, &fs.reserve} {
		n := 0
		for b, prev := l.head, (*buf)(nil); b != nil; b, prev = b.next, b {
			switch {
			case b.on != l || b.prev != prev || (b.next == nil && l.tail != b):
				return fmt.Errorf("buffer %v: list links broken", b.key)
			case fs.bufs[b.key] != b || b.data == nil:
				return fmt.Errorf("buffer %v is on a list but not in the cache", b.key)
			case l == &fs.reserve && (b.dirty || b.key.lbn >= 0 || !fs.amap.IsTertiarySeg(fs.amap.SegOf(b.addr))):
				return fmt.Errorf("buffer %v in the reserve: dirty %v, address %d", b.key, b.dirty, b.addr)
			}
			if b.dirty {
				dirty++
				if fs.dirty[b.key] != b {
					return fmt.Errorf("dirty buffer %v is not in the dirty set", b.key)
				}
			}
			n++
		}
		if n != l.n || (n == 0) != (l.tail == nil) {
			return fmt.Errorf("list of %d buffers counts %d (tail %v)", n, l.n, l.tail)
		}
	}
	switch total := fs.lru.n + fs.reserve.n; {
	case total != len(fs.bufs): // so no buffer is on both lists, or on none
		return fmt.Errorf("%d buffers on the lists, %d in the cache", total, len(fs.bufs))
	case fs.bufBytes != total*BlockSize || len(fs.dirty) != dirty: // so the dirty set is the dirty buffers
		return fmt.Errorf("bufBytes %d, a dirty set of %d for %d buffers, %d dirty", fs.bufBytes, len(fs.dirty), total, dirty)
	case fs.reserve.n*BlockSize > fs.opts.BufferBytes/reserveShare:
		return fmt.Errorf("reserve holds %d blocks of a %d-byte budget", fs.reserve.n, fs.opts.BufferBytes)
	case fs.bufBytes > fs.opts.BufferBytes && fs.reserve.n > 0:
		return fmt.Errorf("cache over budget (%d bytes) with %d blocks in the reserve", fs.bufBytes, fs.reserve.n)
	}
	return nil
}

// stager migrates whole files, into tertiary segments it uses once each and
// that stay readable through their cache lines.
type stager struct {
	fs   *FS
	td   *tertDev
	next int // tertiary segment index to use next
}

func (s *stager) migrate(p *sim.Proc, inum uint32, withInode bool) error {
	if err := s.fs.Sync(p); err != nil {
		return err
	}
	refs, err := s.fs.FileBlockRefs(p, inum)
	if err != nil {
		return err
	}
	var inodes []uint32
	if withInode {
		inodes = []uint32{inum}
	}
	for len(refs) > 0 && s.next < s.fs.TsegCount() {
		line, err := s.fs.AllocCacheSegment(p, uint32(s.next), true)
		if err != nil {
			return err
		}
		tseg := s.fs.amap.SegForIndex(s.next)
		s.next++
		s.td.line[tseg] = line
		res, err := s.fs.Migratev(p, refs, inodes, tseg, line, 0)
		if err != nil {
			return err
		}
		refs, inodes = refs[res.Consumed:], nil
	}
	return nil
}

// TestReserveInvariantsUnderRandomOps drives a seeded stream of every
// operation that touches buffers over files with single-indirect blocks and
// one that grows and shrinks across the double-indirect boundary, some of
// them migrated, and checks the cache invariants and the files' contents
// after every step (freed blocks are poisoned, see poison_test.go).
func TestReserveInvariantsUnderRandomOps(t *testing.T) {
	const files = 32
	const big = (nDirect + ptrsPerBlock + 4) * BlockSize // file 0 starts four blocks into its first double-indirect child
	e, td := newTertEnv(t, 128, 1024, Options{MaxInodes: 64, BufferBytes: 64 * BlockSize, WriteThreshold: 16 * BlockSize, CacheSegs: 500},
		addr.Geom{Vols: 2, SegsPerVol: 250})
	e.run(t, func(p *sim.Proc) {
		fs, rng := e.fs, rand.New(rand.NewSource(19))
		st := &stager{fs: fs, td: td}
		model := map[string][]byte{"/f0": pattern(0, big)}
		writeFile(t, p, fs, "/f0", model["/f0"])
		open := func(name string) *File {
			f, err := fs.Open(p, name)
			if err != nil {
				t.Fatalf("open %s: %v", name, err)
			}
			return f
		}
		reserveHeld := 0
		for step := 0; step < 1500; step++ {
			name := fmt.Sprintf("/f%d", rng.Intn(files))
			want, exists := model[name]
			op := rng.Intn(12)
			what := fmt.Sprintf("step %d op %d on %s", step, op, name)
			switch {
			case op == 0 || len(want) == 0: // write, up to three blocks past the end: whole-block holes, under indirect blocks too
				off := rng.Intn((blocksFor(len(want))+3)*BlockSize + 1)
				if name == "/f0" {
					off = max(0, len(want)-rng.Intn(4*BlockSize)) + rng.Intn(3)*BlockSize
				}
				want = append(want, make([]byte, max(0, off-len(want)))...)
				data := pattern(byte(step), 1+rng.Intn(20*BlockSize))
				f, err := fs.Create(p, name)
				if exists {
					f, err = fs.Open(p, name)
				}
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if _, err := f.WriteAt(p, data, int64(off)); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				model[name] = append(want[:off:off], append(data, want[min(off+len(data), len(want)):]...)...)
			case op <= 5: // read
				off := rng.Intn(len(want))
				got := make([]byte, 1+rng.Intn(20*BlockSize))
				n, err := open(name).ReadAt(p, got, int64(off))
				if err != nil && err != io.EOF {
					t.Fatalf("%s: %v", what, err)
				}
				if !bytes.Equal(got[:n], want[off:min(off+len(got), len(want))]) {
					t.Fatalf("%s: wrong content at offset %d", what, off)
				}
			case op == 6: // truncate, anywhere; file 0 by 11 blocks at most
				size := rng.Intn(len(want) + 1)
				if name == "/f0" {
					size = max(0, len(want)-rng.Intn(12*BlockSize))
				}
				if err := open(name).Truncate(p, uint64(size)); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				model[name] = want[:size]
			case op == 7 && rng.Intn(3) == 0 && name != "/f0":
				if err := fs.Remove(p, name); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				delete(model, name)
			case op == 7:
				inum := open(name).Inum()
				fs.DropFileBuffers(p, inum)
				for k, b := range fs.bufs {
					if k.inum == inum && !b.dirty {
						t.Fatalf("%s: DropFileBuffers left clean block %v", what, k)
					}
				}
			case op <= 9: // migrate, then send one migrated segment away
				if err := st.migrate(p, open(name).Inum(), rng.Intn(2) == 0); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if st.next > 0 {
					td.away[fs.amap.SegForIndex(rng.Intn(st.next))] = true
				}
			case op == 10 && rng.Intn(8) == 0:
				if err := fs.FlushCaches(p); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if len(fs.bufs) != 0 || fs.lru.head != nil || fs.reserve.head != nil {
					t.Fatalf("%s: FlushCaches left %d buffers", what, len(fs.bufs))
				}
			case op == 10: // sync, and a look behind every file's direct blocks: more pointer blocks than the reserve takes
				if err := fs.Sync(p); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				for i := 0; i < files; i++ {
					name, got := fmt.Sprintf("/f%d", i), make([]byte, 512)
					if want := model[name]; len(want) >= nDirect*BlockSize+len(got) {
						if _, err := open(name).ReadAt(p, got, nDirect*BlockSize); err != nil || !bytes.Equal(got, want[nDirect*BlockSize:][:len(got)]) {
							t.Fatalf("%s: scan of %s: err %v, or wrong content", what, name, err)
						}
					}
				}
			default: // the cleaner marks live blocks dirty, reached through fs.bufs, and flushes; here also one in the reserve
				if b := fs.reserve.tail; b != nil && rng.Intn(3) == 0 {
					if _, err := fs.iget(p, b.key.inum); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					fs.markDirty(fs.bufs[b.key])
					if err := checkBufferCache(fs); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if err := fs.Sync(p); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
				if _, err := fs.CleanSegments(p, fs.SelectCleanable(2)); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			if err := checkBufferCache(fs); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			reserveHeld = max(reserveHeld, fs.reserve.n)
		}
		for i := 0; i < files; i++ {
			name := fmt.Sprintf("/f%d", i)
			if want, exists := model[name]; exists && !bytes.Equal(readAll(t, p, open(name)), want) {
				t.Errorf("%s: wrong content at the end", name)
			}
		}
		s := fs.Stats()
		t.Logf("%d tertiary segments, reserve held up to %d blocks, %d reserve hits of %d hits, %d pointer waits, %d+%d waits",
			st.next, reserveHeld, s.ReserveHits, s.CacheHits, s.PointerWaits, td.fetches, td.held)
		if want := fs.opts.BufferBytes / reserveShare / BlockSize; reserveHeld != want || s.ReserveHits == 0 || s.PointerWaits == 0 {
			t.Errorf("the stream did not exercise the reserve: held %d of %d blocks, %d hits, %d pointer waits",
				reserveHeld, want, s.ReserveHits, s.PointerWaits)
		}
		if s.PointerWaits > int64(td.fetches+td.held) {
			t.Errorf("%d pointer waits, but the device saw only %d waits", s.PointerWaits, td.fetches+td.held)
		}
	})
}

// TestReadAheadDoesNotSeeTheReserve: the first cluster of a sequential read
// ends at the last direct block whether the file's pointer block is in the
// reserve or not cached at all, so no time to first byte depends on what
// the reserve holds; the demand lookup that follows is served from it. And a
// cache full of dirty blocks takes the reserve's share too.
func TestReadAheadDoesNotSeeTheReserve(t *testing.T) {
	e, td := newTertEnv(t, 64, 64, Options{MaxInodes: 64, BufferBytes: 64 * BlockSize, WriteThreshold: 1 << 30, CacheSegs: 4},
		addr.Geom{Vols: 1, SegsPerVol: 4})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		data := pattern(1, 40*BlockSize)
		f := writeFile(t, p, fs, "/migrated", data)
		flood := writeFile(t, p, fs, "/flood", pattern(2, 100*BlockSize))
		if err := (&stager{fs: fs, td: td}).migrate(p, f.Inum(), false); err != nil {
			t.Fatal(err)
		}
		firstCluster := func() (blocks int) {
			if _, err := f.ReadAt(p, make([]byte, BlockSize), 0); err != nil {
				t.Fatal(err)
			}
			for k := range fs.bufs {
				if k.inum == f.Inum() && k.lbn >= 0 {
					blocks++
				}
			}
			return blocks
		}
		if err := fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		absent := firstCluster()

		readAll(t, p, f)
		readAll(t, p, flood) // pushes every block of f out, its pointer block into the reserve
		ptr := fs.bufs[bufKey{f.Inum(), LbnSingle}]
		if ptr == nil || ptr.on != &fs.reserve {
			t.Fatalf("the pointer block is not in the reserve after the flood: %+v", ptr)
		}
		reserved := firstCluster()
		if absent != nDirect || reserved != absent {
			t.Fatalf("first cluster: %d blocks with the pointer block absent, %d with it in the reserve, want %d both times",
				absent, reserved, nDirect)
		}
		before := fs.Stats()
		got := make([]byte, BlockSize)
		if _, err := f.ReadAt(p, got, nDirect*BlockSize); err != nil || !bytes.Equal(got, data[nDirect*BlockSize:][:BlockSize]) {
			t.Fatalf("read behind the direct blocks: err %v, content ok %v", err, err == nil)
		}
		after := fs.Stats()
		if after.ReserveHits != before.ReserveHits+1 || ptr.on != &fs.lru || after.DevReads != before.DevReads+1 {
			t.Fatalf("demand lookup: %d reserve hits, %d device reads, back on the main list %v; want 1, 1 (the data), true",
				after.ReserveHits-before.ReserveHits, after.DevReads-before.DevReads, ptr.on == &fs.lru)
		}

		readAll(t, p, flood)
		if ptr.on != &fs.reserve {
			t.Fatal("the pointer block is not in the reserve after the second flood")
		}
		if _, err := flood.WriteAt(p, pattern(3, 64*BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		if fs.reserve.n != 0 || len(fs.dirty) != 64 {
			t.Fatalf("%d blocks in the reserve beside %d dirty blocks, a full budget", fs.reserve.n, len(fs.dirty))
		}
	})
}
