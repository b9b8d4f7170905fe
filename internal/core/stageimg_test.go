package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// stageRig is a HighLight over plain RZ57 disks with two libraries, 64-block
// segments (four 64 KB extents a line) and Replicas: 2. The farm is two disks
// concatenated, or, with parity set, four striped with rotating parity and a
// 16-block stripe unit, as the serve workload's farm is. prep, if not nil,
// sets up each disk before the file system is made.
type stageRig struct {
	k     *sim.Kernel
	jukes []jukebox.Footprint
	hl    *HighLight
}

const stageSegBlocks = 64

func newStageRig(t *testing.T, parity bool, prep func(*dev.Disk)) *stageRig {
	t.Helper()
	r := &stageRig{k: sim.NewKernel()}
	cfg := Config{SegBlocks: stageSegBlocks, CacheSegs: 16, MaxInodes: 128, Replicas: 2, BufferBytes: 1 << 20}
	n, size := 2, int64(40*stageSegBlocks)
	if parity {
		n, cfg.StripeUnit, cfg.Parity = 4, 16, true
	}
	for i := 0; i < n; i++ {
		d := dev.NewDisk(r.k, dev.RZ57, size, nil)
		if prep != nil {
			prep(d)
		}
		cfg.Disks = append(cfg.Disks, d)
	}
	for i := 0; i < 2; i++ {
		r.jukes = append(r.jukes, jukebox.MustNew(r.k, jukebox.MO6300, 2, 4, 16, stageSegBlocks*lfs.BlockSize, nil))
	}
	cfg.Jukeboxes = r.jukes
	r.k.RunProc(func(p *sim.Proc) {
		hl, err := New(p, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		r.hl = hl
	})
	return r
}

// stage writes files of several sizes and migrates each, its inode too, in a
// call of its own, so the lines fill with partial segments of several sizes
// at unaligned offsets; the copy-outs are held back (DelayCopyouts) and the
// last line is closed. It returns the closed lines, each with the image it
// was staged in, and the files with what they hold.
func (r *stageRig) stage(t *testing.T, p *sim.Proc) ([]stagedLine, map[*lfs.File][]byte) {
	t.Helper()
	hl := r.hl
	hl.DelayCopyouts = true
	files := map[*lfs.File][]byte{}
	for i, blocks := range []int{30, 41, 23, 37, 50, 19} {
		data := pat(byte(i+1), blocks*lfs.BlockSize)
		f := put(t, p, hl, fmt.Sprintf("/f%d", i), data)
		files[f] = data
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := hl.finishStaging(p); err != nil {
		t.Fatal(err)
	}
	lines := slices.Clone(hl.delayed)
	if len(lines) < 3 {
		t.Fatalf("%d staged lines, want at least 3", len(lines))
	}
	for _, l := range lines {
		if l.img == nil {
			t.Fatalf("staged line of segment %d has no image", l.tag)
		}
	}
	return lines, files
}

// lineBlock is the farm address of block off of line l.
func (r *stageRig) lineBlock(l stagedLine, off int) int64 {
	return int64(r.hl.Amap.BlockOf(l.seg, off))
}

// aliased reports which blocks of line l the farm lends as views of l's
// image at the same offset, one lending read per block.
func (r *stageRig) aliased(t *testing.T, p *sim.Proc, l stagedLine) []bool {
	t.Helper()
	out := make([]bool, stageSegBlocks)
	for b := range out {
		var view []byte
		part := []dev.Part{{Blk: r.lineBlock(l, b), Buf: make([]byte, lfs.BlockSize), Lend: &view}}
		if err := r.hl.Disk.ReadParts(p, part); err != nil {
			t.Fatal(err)
		}
		out[b] = view != nil && &view[0] == &l.img[b*lfs.BlockSize]
	}
	return out
}

// readLine reads line l off the farm.
func (r *stageRig) readLine(t *testing.T, p *sim.Proc, l stagedLine) []byte {
	t.Helper()
	buf := make([]byte, stageSegBlocks*lfs.BlockSize)
	if err := r.hl.Disk.ReadBlocks(p, r.lineBlock(l, 0), buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// medium returns the image the changer keeps for tertiary segment tag.
func (r *stageRig) medium(t *testing.T, p *sim.Proc, tag int) []byte {
	t.Helper()
	d, v, s, _ := r.hl.Amap.Loc(r.hl.Amap.SegForIndex(tag))
	img, err := r.jukes[d].LendSegment(p, v, s)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func (r *stageRig) readFiles(t *testing.T, p *sim.Proc, files map[*lfs.File][]byte, when string) {
	t.Helper()
	for f, data := range files {
		if got, err := readWhole(p, f, len(data)); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: inode %d reads back wrong (err %v)", when, f.Inum(), err)
		}
	}
}

// TestCopyoutHandsTheStagedImageOn: on a concatenated farm of plain disks the
// disk takes the whole extents of each partial segment as it is staged, by
// reference, and the copy-out reads the line back into the image it was
// staged in: after CompleteMigration both changers' segments are that image,
// every extent of the line holding staged bytes is a view of it, and the line
// reads back as it.
func TestCopyoutHandsTheStagedImageOn(t *testing.T) {
	r := newStageRig(t, false, nil)
	r.k.RunProc(func(p *sim.Proc) {
		lines, files := r.stage(t, p)
		for _, l := range lines {
			if !slices.Contains(r.aliased(t, p, l), true) {
				t.Errorf("line of segment %d: no block is the staged image before its copy-out", l.tag)
			}
		}
		if err := r.hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		for _, l := range lines {
			if len(l.dests) != 2 {
				t.Fatalf("line of segment %d went to %d media, want 2", l.tag, len(l.dests))
			}
			for _, tag := range l.dests {
				if m := r.medium(t, p, tag); &m[0] != &l.img[0] {
					t.Errorf("segment %d: the changer keeps another image than the line was staged in", tag)
				}
			}
			if !bytes.Equal(r.readLine(t, p, l), l.img) {
				t.Errorf("line of segment %d does not read back as its staged image", l.tag)
			}
			alias := r.aliased(t, p, l)
			for b := range alias {
				x := b / 16 * 16 * lfs.BlockSize // the 64 KB extent holding block b
				staged := slices.ContainsFunc(l.img[x:x+16*lfs.BlockSize], func(c byte) bool { return c != 0 })
				if alias[b] != staged {
					t.Errorf("line of segment %d, block %d: a view of the image %v, want %v", l.tag, b, alias[b], staged)
				}
			}
		}
		r.readFiles(t, p, files, "after the copy-outs")
	})
	r.k.Stop()
}

// TestStagedImageIsCopiedWhereTheDiskMustCopy: the migration of
// TestCopyoutHandsTheStagedImageOn over disks with a write cache and over the
// serve workload's parity farm leaves no disk holding the staged image: the
// changers keep it, but the line reads back the same after the image is
// overwritten. Overwriting it breaks the promise on purpose, so the test runs
// under an audit of its own, which must name the changers as its keepers.
func TestStagedImageIsCopiedWhereTheDiskMustCopy(t *testing.T) {
	for _, tc := range []struct {
		name   string
		parity bool
		prep   func(*dev.Disk)
	}{
		{"write cache", false, func(d *dev.Disk) { d.EnableWriteCache(64) }},
		{"parity farm", true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			audit := dev.Audit
			dev.Audit = &dev.HandOvers{}
			defer func() { dev.Audit = audit }()
			r := newStageRig(t, tc.parity, tc.prep)
			r.k.RunProc(func(p *sim.Proc) {
				lines, files := r.stage(t, p)
				if err := r.hl.CompleteMigration(p); err != nil {
					t.Fatal(err)
				}
				want := make([][]byte, len(lines))
				for i, l := range lines {
					if m := r.medium(t, p, l.tag); &m[0] != &l.img[0] {
						t.Errorf("segment %d: the changer keeps another image than the line was staged in", l.tag)
					}
					if want[i] = r.readLine(t, p, l); !bytes.Equal(want[i], l.img) {
						t.Fatalf("line of segment %d does not read back as its staged image", l.tag)
					}
				}
				for _, l := range lines {
					for i := range l.img {
						l.img[i] = 0xDB // what the Adopter contract forbids, to find who holds it
					}
				}
				if err := dev.Audit.Check(); err == nil || !strings.Contains(err.Error(), "jukebox: adopted segment") {
					t.Errorf("overwriting the staged images: the audit says %v, want the changers' adopted segments changed", err)
				}
				for i, l := range lines {
					if !bytes.Equal(r.readLine(t, p, l), want[i]) {
						t.Errorf("line of segment %d changed with its staged image: the disk kept it", l.tag)
					}
				}
				r.hl.FS.FlushCaches(p)
				r.readFiles(t, p, files, "after the images changed")
			})
			r.k.Stop()
		})
	}
}

// TestCopiedOutImageIsNeverWritten: a staged line's image is the changers'
// segment and the disk's extents after its copy-out, and the file system
// reads the copied-out file as views of it. Rewriting a block of the file,
// a partial overwrite, a truncate inside a block, evicting its buffers (freed
// blocks are poisoned, poison_test.go) and staging another file must each
// leave both media and the line as they were, and the file read back as the
// steps wrote it.
func TestCopiedOutImageIsNeverWritten(t *testing.T) {
	r := newStageRig(t, false, nil)
	r.k.RunProc(func(p *sim.Proc) {
		hl := r.hl
		lines, files := r.stage(t, p)
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		snap := func() map[string][]byte {
			m := map[string][]byte{}
			for _, l := range lines {
				for _, tag := range l.dests {
					m[fmt.Sprintf("segment %d", tag)] = bytes.Clone(r.medium(t, p, tag))
				}
				m[fmt.Sprintf("line of segment %d", l.tag)] = r.readLine(t, p, l)
			}
			return m
		}
		before := snap()
		check := func(step string) {
			t.Helper()
			for name, b := range snap() {
				if !bytes.Equal(b, before[name]) {
					t.Errorf("%s changed the bytes of %s", step, name)
				}
			}
			r.readFiles(t, p, files, step)
		}
		if err := hl.FS.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		check("reading the files from their lines")
		var f *lfs.File
		for g := range files {
			if f == nil || g.Inum() < f.Inum() {
				f = g
			}
		}
		write := func(b []byte, off int) {
			t.Helper()
			if _, err := f.WriteAt(p, b, int64(off)); err != nil {
				t.Fatal(err)
			}
			copy(files[f][off:], b)
		}
		write(pat(91, lfs.BlockSize), 3*lfs.BlockSize)
		check("a full-block overwrite")
		write(pat(92, 50), 5*lfs.BlockSize+100)
		check("a partial overwrite")
		if err := f.Truncate(p, 20*lfs.BlockSize+123); err != nil {
			t.Fatal(err)
		}
		files[f] = files[f][:20*lfs.BlockSize+123]
		check("a truncate inside a block")
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		hl.FS.DropFileBuffers(p, f.Inum())
		if err := hl.FS.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		check("evicting its buffers")
		g := put(t, p, hl, "/next", pat(93, 45*lfs.BlockSize))
		files[g] = pat(93, 45*lfs.BlockSize)
		if _, err := hl.MigrateFiles(p, []uint32{g.Inum()}, true); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		check("staging another file")
	})
	r.k.Stop()
}
