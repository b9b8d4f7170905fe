package lfs

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/sim"
)

var updateWrites = flag.Bool("update", false, "rewrite testdata/writes.golden from this file system")

// recDev is a tertDev that logs every WriteBlocks: the virtual time, the
// address, the block count and the bytes' sha256.
type recDev struct {
	td  *tertDev
	log []string
}

func (d *recDev) ReadBlocks(p *sim.Proc, b addr.BlockNo, buf []byte) error {
	return d.td.ReadBlocks(p, b, buf)
}

func (d *recDev) ReadParts(p *sim.Proc, parts []dev.Part) error {
	return d.td.ReadParts(p, parts)
}

func (d *recDev) WriteBlocks(p *sim.Proc, b addr.BlockNo, buf []byte) error {
	d.log = append(d.log, fmt.Sprintf("t=%d at=%d n=%d sha256=%x", p.Now(), b, len(buf)/BlockSize, sha256.Sum256(buf)))
	return d.td.WriteBlocks(p, b, buf)
}

// writeSession runs the scripted session of TestMediaWritesMatchGolden and
// returns its write log, Stats() last.
func writeSession(t *testing.T) []string {
	const segBlocks, diskSegs = 64, 160
	k := sim.NewKernel()
	amap := addr.New(segBlocks, diskSegs, addr.Geom{Vols: 1, SegsPerVol: 8})
	disk := dev.NewDisk(k, dev.RZ57, int64(diskSegs*segBlocks), nil)
	td := &tertDev{DiskDevice: DiskDevice{disk}, amap: amap, away: map[addr.SegNo]bool{},
		line: map[addr.SegNo]addr.SegNo{}, fetchTime: sim.Time(time.Second)}
	rd := &recDev{td: td}
	k.RunProc(func(p *sim.Proc) {
		fs, err := Format(p, rd, amap, Options{MaxInodes: 64, CacheSegs: 8, AssemblyCopyRate: 8 << 20, GatherChunkBlocks: 4})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		must := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		sync := func() { must("Sync", fs.Sync(p)) }
		for _, d := range []string{"/a", "/b"} {
			must("Mkdir "+d, fs.Mkdir(p, d))
		}
		// Flushes that cross segment boundaries and thread Next.
		x := writeFile(t, p, fs, "/a/x", pattern(1, 100*BlockSize))
		y := writeFile(t, p, fs, "/a/y", pattern(2, 3*BlockSize+7))
		sync()
		// A flush that fills its segment exactly pre-picks the next one.
		for i := 0; fs.curOff != 0; i++ {
			if i == 20 {
				t.Fatalf("no flush filled its segment: log head at offset %d", fs.curOff)
			}
			n := min(max(segBlocks-fs.curOff-3, 1), nDirect)
			writeFile(t, p, fs, fmt.Sprintf("/a/pad%d", i), pattern(byte(10+i), n*BlockSize))
			sync()
		}
		// A file two double-indirect children long, flushed as it goes.
		big := writeFile(t, p, fs, "/b/big", pattern(3, (nDirect+2*ptrsPerBlock+8)*BlockSize))
		must("Checkpoint", fs.Checkpoint(p))
		// Overwrites leave dead blocks behind; the cleaner takes two segments.
		_, err = x.WriteAt(p, pattern(4, 30*BlockSize), 20*BlockSize)
		must("overwrite", err)
		sync()
		_, err = fs.CleanSegments(p, fs.SelectCleanable(2))
		must("CleanSegments", err)
		// Migration of a file and its inode, with the inode of a removed file
		// in the list: its slot stays empty. The first staging segment fills.
		yInum := y.Inum()
		must("Remove /a/y", fs.Remove(p, "/a/y"))
		sync()
		refs, err := fs.FileBlockRefs(p, x.Inum())
		must("FileBlockRefs", err)
		inodes := []uint32{x.Inum(), yInum}
		full := false
		for tag := 0; len(refs) > 0; tag++ {
			line, err := fs.AllocCacheSegment(p, uint32(tag), true)
			must("AllocCacheSegment", err)
			tseg := amap.SegForIndex(tag)
			td.line[tseg] = line
			off := 0
			if tag == 0 {
				off = segBlocks - 30
			}
			res, err := fs.Migratev(p, refs, inodes, tseg, line, off)
			must("Migratev", err)
			full = full || res.Full
			refs, inodes = refs[res.Consumed:], nil
		}
		if !full {
			t.Fatal("no Migratev call filled its staging segment")
		}
		if got := readAll(t, p, x); !bytes.Equal(got[20*BlockSize:50*BlockSize], pattern(4, 30*BlockSize)) {
			t.Fatal("migrated file reads back wrong")
		}
		// Truncates at block boundaries: a double-indirect child, then the
		// double-indirect root, then the single indirect block go.
		for _, blocks := range []int{nDirect + ptrsPerBlock + 5, nDirect + 10, 3} {
			must("Truncate", big.Truncate(p, uint64(blocks*BlockSize)))
			sync()
		}
		// Namespace edits within one directory and across directories.
		writeFile(t, p, fs, "/a/r", pattern(5, 2*BlockSize))
		must("Rename within", fs.Rename(p, "/a/r", "/a/s"))
		must("Rename across", fs.Rename(p, "/a/s", "/b/s"))
		must("Mkdir /c", fs.Mkdir(p, "/c"))
		must("Remove /b/s", fs.Remove(p, "/b/s"))
		must("Remove /c", fs.Remove(p, "/c"))
		sync()
		// Retire the segments holding the log head.
		lo := fs.curSeg
		for s := lo; s < lo+3; s++ {
			if fs.seguse[s].Flags&SegCached != 0 {
				t.Fatalf("segment %d to retire is a cache line", s)
			}
		}
		must("RetireSegments", fs.RetireSegments(p, lo, lo+3))
		if got := readAll(t, p, big); !bytes.Equal(got, pattern(3, (nDirect+2*ptrsPerBlock+8)*BlockSize)[:3*BlockSize]) {
			t.Fatal("truncated file reads back wrong")
		}
		must("Checkpoint", fs.Checkpoint(p))
		rd.log = append(rd.log, fmt.Sprintf("stats %+v", fs.Stats()))
	})
	k.Stop()
	return rd.log
}

// TestMediaWritesMatchGolden pins every byte the file system writes, and
// when: testdata/writes.golden is the write log of a scripted session over
// the log writer, the cleaner, Migratev, truncation, the namespace edits and
// RetireSegments. A refactor of any of them leaves it unchanged; -update
// rewrites it, and only an intended change of the on-media format or of the
// write schedule may.
func TestMediaWritesMatchGolden(t *testing.T) {
	const path = "testdata/writes.golden"
	got := writeSession(t)
	if *updateWrites {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("write %d: got %q, golden %q", i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("log has %d lines, golden %d", len(got), len(want))
	}
}

// TestPointerMapAgainstModel grows a dense file past its first
// double-indirect child, then overwrites, extends, truncates to block
// boundaries, flushes and drops the caches at random, and compares every
// block with a model after each step. An extending write starts up to three
// blocks past the end of the file, so whole-block holes land under indirect
// blocks and must read as zeroes after a flush.
func TestPointerMapAgainstModel(t *testing.T) {
	e := newEnv(t, 128, 160, Options{MaxInodes: 16, BufferBytes: 1 << 20})
	e.run(t, func(p *sim.Proc) {
		fs, rng := e.fs, rand.New(rand.NewSource(25))
		model := pattern(1, (nDirect+ptrsPerBlock+ptrsPerBlock+40)*BlockSize)
		f := writeFile(t, p, fs, "/f", model)
		check := func(what string) {
			got := make([]byte, len(model))
			if n, err := f.ReadAt(p, got, 0); n != len(got) || (err != nil && err != io.EOF) {
				t.Fatalf("%s: read %d of %d bytes: %v", what, n, len(got), err)
			}
			for lbn := 0; lbn*BlockSize < len(model); lbn++ {
				end := min((lbn+1)*BlockSize, len(model))
				if !bytes.Equal(got[lbn*BlockSize:end], model[lbn*BlockSize:end]) {
					t.Fatalf("%s: block %d differs from the model", what, lbn)
				}
			}
		}
		check("initial")
		for step := 0; step < 80; step++ {
			var what string
			blocks := (len(model) + BlockSize - 1) / BlockSize
			switch op := rng.Intn(10); {
			case op < 5: // overwrite, or extend from a block before the end to three past it
				off, n := rng.Intn(len(model)+1), 1+rng.Intn(64*BlockSize)
				if op >= 3 {
					off, n = max(0, len(model)-BlockSize+rng.Intn(4*BlockSize)), 1+rng.Intn(1000*BlockSize)
				}
				data := pattern(byte(step), n)
				what = fmt.Sprintf("step %d: write %d bytes at %d", step, len(data), off)
				if _, err := f.WriteAt(p, data, int64(off)); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				model = append(model, make([]byte, max(0, off-len(model)))...)
				model = append(model[:off:off], append(data, model[min(off+len(data), len(model)):]...)...)
			case op < 7: // truncate to a block boundary: by a few blocks, or anywhere
				size := max(0, blocks-rng.Intn(40)) * BlockSize
				if op == 6 {
					size = rng.Intn(blocks+1) * BlockSize
				}
				what = fmt.Sprintf("step %d: truncate to %d blocks", step, size/BlockSize)
				if err := f.Truncate(p, uint64(size)); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				model = model[:size]
			case op < 9:
				what = fmt.Sprintf("step %d: sync", step)
				if err := fs.Sync(p); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			default:
				what = fmt.Sprintf("step %d: FlushCaches", step)
				if err := fs.FlushCaches(p); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			if sz, err := f.Size(p); err != nil || sz != uint64(len(model)) {
				t.Fatalf("%s: size %d, model %d (%v)", what, sz, len(model), err)
			}
			if len(model) > 0 {
				check(what)
			}
		}
	})
}
