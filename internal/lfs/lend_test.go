package lfs

import (
	"bytes"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// TestFetchedBlocksAreLent: a read of blocks whose disk extents were adopted
// puts views of the images in the buffer cache, not copies. A partial
// overwrite, a full-block overwrite and a truncate each give their block a
// copy of its own first, so no image changes and the file reads back as
// written.
func TestFetchedBlocksAreLent(t *testing.T) {
	e := newEnv(t, 64, 32, Options{MaxInodes: 64})
	e.run(t, func(p *sim.Proc) {
		data := pattern(5, 48*BlockSize)
		f := writeFile(t, p, e.fs, "/f", data)
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		imgs := fetchSegments(t, p, e.fs, e.disk, f.Inum())
		lent := map[addr.SegNo][]byte{}
		for seg, img := range imgs {
			lent[seg] = bytes.Clone(img)
		}
		if got := readAll(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("fetched file reads back wrong")
		}
		for lbn := range int32(48) {
			b := e.fs.bufs[bufKey{f.Inum(), lbn}]
			if b == nil || !b.lent || &b.data[0] != &imgs[e.fs.amap.SegOf(b.addr)][e.fs.amap.OffOf(b.addr)*BlockSize] {
				t.Fatalf("block %d of the file is not a view of its fetched image", lbn)
			}
		}

		steps := []struct {
			name string
			do   func() error
		}{
			{"partial overwrite", func() error { _, err := f.WriteAt(p, pattern(7, 100), 2*BlockSize+9); return err }},
			{"full-block overwrite", func() error { _, err := f.WriteAt(p, pattern(8, BlockSize), 4*BlockSize); return err }},
			{"truncate", func() error { return f.Truncate(p, 30*BlockSize+77) }},
		}
		copy(data[2*BlockSize+9:], pattern(7, 100))
		copy(data[4*BlockSize:], pattern(8, BlockSize))
		data = data[:30*BlockSize+77]
		for _, s := range steps {
			if err := s.do(); err != nil {
				t.Fatal(err)
			}
			for seg, img := range imgs {
				if !bytes.Equal(img, lent[seg]) {
					t.Fatalf("%s changed the image of segment %d", s.name, seg)
				}
			}
		}
		if got := readAll(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("file reads back wrong after the writes")
		}
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("file reads back wrong from the log")
		}
	})
}
