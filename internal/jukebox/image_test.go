package jukebox

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dev"
	"repro/internal/sim"
)

// The image tests use a toy geometry (3 volumes of 8 segments of 64 bytes)
// so that images, and the fuzz corpus under testdata/, stay small.
const (
	imgVols, imgSegs, imgSegBytes = 3, 8, 64
	imgHeader, imgVolHeader       = 16, 16
)

func newImageBox() *Jukebox {
	return MustNew(sim.NewKernel(), MO6300, 1, imgVols, imgSegs, imgSegBytes, nil)
}

// boxImage is a SaveStore image with the given (volume, segment) pairs
// written, in the order given.
func boxImage(t testing.TB, segs ...[2]int) []byte {
	k := sim.NewKernel()
	j := MustNew(k, MO6300, 1, imgVols, imgSegs, imgSegBytes, nil)
	k.RunProc(func(p *sim.Proc) {
		for _, vs := range segs {
			if err := j.WriteSegment(p, vs[0], vs[1], bytes.Repeat([]byte{byte('a' + vs[0]*imgSegs + vs[1])}, imgSegBytes)); err != nil {
				t.Fatal(err)
			}
		}
	})
	var img bytes.Buffer
	if err := j.SaveStore(&img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

// TestSaveStoreIsDeterministic: an image is a function of the media —
// saving twice, and saving what was loaded, give the same bytes, whatever
// order the segments were written in.
func TestSaveStoreIsDeterministic(t *testing.T) {
	var segs [][2]int
	for v := imgVols - 1; v >= 0; v-- {
		for s := imgSegs - 1; s >= 0; s -= 1 + v {
			segs = append(segs, [2]int{v, s})
		}
	}
	first := boxImage(t, segs...)
	if again := boxImage(t, segs...); !bytes.Equal(first, again) {
		t.Error("two saves of the same media differ")
	}
	j := newImageBox()
	if err := j.LoadStore(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := j.SaveStore(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, resaved.Bytes()) {
		t.Error("save → load → save changed the image")
	}
}

// TestLoadStoreUnloadsTheDrives: after a power cycle no cartridge sits in a
// drive, so the next read pays a swap.
func TestLoadStoreUnloadsTheDrives(t *testing.T) {
	img := boxImage(t, [2]int{1, 3})
	k := sim.NewKernel()
	j := MustNew(k, MO6300, 1, imgVols, imgSegs, imgSegBytes, nil)
	buf := make([]byte, imgSegBytes)
	k.RunProc(func(p *sim.Proc) {
		if err := j.ReadSegment(p, 1, 3, buf); err != nil {
			t.Fatal(err)
		}
		if err := j.LoadStore(bytes.NewReader(img)); err != nil {
			t.Fatal(err)
		}
		if v := j.drives[0].loaded; v != -1 {
			t.Fatalf("drive 0 holds volume %d after LoadStore, want none", v)
		}
		if err := j.ReadSegment(p, 1, 3, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 'a'+imgSegs+3 || j.Stats().Swaps != 2 {
			t.Fatalf("read %q after %d swaps; want the loaded segment after 2", buf[0], j.Stats().Swaps)
		}
	})
}

// TestLoadStoreRejectsBadImages names each way an image can be wrong; the
// fuzz target below looks for the ones not thought of.
func TestLoadStoreRejectsBadImages(t *testing.T) {
	good := boxImage(t, [2]int{0, 2}, [2]int{0, 5}, [2]int{2, 7})
	const rec0 = imgHeader + imgVolHeader // volume 0's first record
	edit := func(f func(img []byte) []byte) []byte { return f(bytes.Clone(good)) }
	for name, img := range map[string][]byte{
		"empty":             nil,
		"short header":      good[:10],
		"bad magic":         edit(func(b []byte) []byte { b[0] ^= 1; return b }),
		"other volumes":     edit(func(b []byte) []byte { b[4]++; return b }),
		"other segment":     edit(func(b []byte) []byte { b[8]++; return b }),
		"truncated":         good[:len(good)-1],
		"count too large":   edit(func(b []byte) []byte { b[imgHeader+8] = imgSegs + 1; return b }),
		"count huge":        edit(func(b []byte) []byte { b[imgHeader+15] = 0x7f; return b }),
		"segment past end":  edit(func(b []byte) []byte { b[rec0] = imgSegs; return b }),
		"segment enormous":  edit(func(b []byte) []byte { b[rec0+3] = 0xff; return b }),
		"duplicate segment": edit(func(b []byte) []byte { b[rec0+4+imgSegBytes] = 2; return b }),
	} {
		if err := newImageBox().LoadStore(bytes.NewReader(img)); !errors.Is(err, ErrBadImage) {
			t.Errorf("%s: error %v, want ErrBadImage", name, err)
		}
	}
}

// FuzzJukeboxLoadStore: whatever the stream, LoadStore returns nil or
// ErrBadImage and does not panic; an accepted image saves back to a stream
// that loads to the same media.
func FuzzJukeboxLoadStore(f *testing.F) {
	f.Add(boxImage(f, [2]int{0, 0}, [2]int{1, 3}, [2]int{2, 7}))
	f.Fuzz(func(t *testing.T, img []byte) {
		j := newImageBox()
		if err := j.LoadStore(bytes.NewReader(img)); err != nil {
			if !errors.Is(err, ErrBadImage) {
				t.Fatalf("error %v is not ErrBadImage", err)
			}
			return
		}
		var out bytes.Buffer
		if err := j.SaveStore(&out); err != nil {
			t.Fatal(err)
		}
		saved := bytes.Clone(out.Bytes())
		j2 := newImageBox()
		if err := j2.LoadStore(&out); err != nil {
			t.Fatalf("reloading an accepted image: %v", err)
		}
		var again bytes.Buffer
		if err := j2.SaveStore(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, again.Bytes()) {
			t.Fatal("save → load → save changed the image")
		}
	})
}

// TestSegmentSteadyStateAllocations gates the cartridge path: lending a
// segment and reading one allocate nothing. WriteSegment allocates its new
// image, one per write, since a lent image never changes; AdoptSegment
// allocates nothing, the buffer it is handed being the new image. The
// hand-over audit is off here: it records each new image, which is the
// test's allocation, not the medium's.
func TestSegmentSteadyStateAllocations(t *testing.T) {
	audit := dev.Audit
	dev.Audit = nil
	defer func() { dev.Audit = audit }()
	k := sim.NewKernel()
	j := newMO(k, 2, 2, 4)
	buf := make([]byte, segBytes)
	k.RunProc(func(p *sim.Proc) {
		if err := j.WriteSegment(p, 0, 1, buf); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, func() {
			if _, err := j.LendSegment(p, 0, 1); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("LendSegment: %v allocations, want 0", n)
		}
		if n := testing.AllocsPerRun(10, func() {
			if err := j.ReadSegment(p, 0, 1, buf); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ReadSegment: %v allocations, want 0", n)
		}
		if n := testing.AllocsPerRun(10, func() {
			if err := j.WriteSegment(p, 0, 1, buf); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("rewriting WriteSegment: %v allocations, want 1 (the new image)", n)
		}
		img := make([]byte, segBytes)
		if n := testing.AllocsPerRun(10, func() {
			if err := j.AdoptSegment(p, 0, 1, img); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("AdoptSegment: %v allocations, want 0 (the buffer is the new image)", n)
		}
	})
}

// BenchmarkJukeboxLendSegment, BenchmarkJukeboxReadSegment and
// BenchmarkJukeboxWriteSegment are the cartridge rows of `make bench-layers`:
// one 1 MB segment lent, read (lent and copied) or written on a loaded
// volume. The write rewrites a segment that exists: the copy of the buffer
// that becomes its new image.
func BenchmarkJukeboxLendSegment(b *testing.B) {
	benchSegment(b, func(j *Jukebox, p *sim.Proc, vol, seg int, _ []byte) error {
		_, err := j.LendSegment(p, vol, seg)
		return err
	})
}
func BenchmarkJukeboxReadSegment(b *testing.B)  { benchSegment(b, (*Jukebox).ReadSegment) }
func BenchmarkJukeboxWriteSegment(b *testing.B) { benchSegment(b, (*Jukebox).WriteSegment) }

func benchSegment(b *testing.B, op func(*Jukebox, *sim.Proc, int, int, []byte) error) {
	k := sim.NewKernel()
	j := newMO(k, 2, 1, 4)
	buf := make([]byte, segBytes)
	b.ReportAllocs()
	b.SetBytes(segBytes)
	k.RunProc(func(p *sim.Proc) {
		for seg := 0; seg < 4; seg++ {
			if err := j.WriteSegment(p, 0, seg, buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op(j, p, 0, i%4, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
