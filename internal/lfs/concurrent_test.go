package lfs

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestConcurrentWritersAndCleaner runs several simulated processes doing
// file I/O concurrently with a cleaner daemon: the file system lock must
// serialize operations without deadlock, and every file must verify.
func TestConcurrentWritersAndCleaner(t *testing.T) {
	e := newEnv(t, 32, 128, Options{MaxInodes: 256, BufferBytes: 1 << 20})
	fs := e.fs
	e.k.GoDaemon("cleaner", fs.AttachCleaner(100, 110))

	const writers = 6
	const rounds = 8
	finals := make([][]byte, writers)
	for w := 0; w < writers; w++ {
		w := w
		e.k.Go("writer", func(p *sim.Proc) {
			name := "/w" + itoa(w)
			f, err := fs.Create(p, name)
			if err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			for r := 0; r < rounds; r++ {
				data := pattern(byte(w*16+r), (3+w)*BlockSize)
				if _, err := f.WriteAt(p, data, 0); err != nil {
					t.Errorf("writer %d round %d: %v", w, r, err)
					return
				}
				finals[w] = data
				p.Sleep(time.Duration(w+1) * 200 * time.Millisecond)
				// Interleave reads of our own file.
				got := make([]byte, len(data))
				if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
					t.Errorf("writer %d read: %v", w, err)
					return
				}
				if !bytes.Equal(got, data) {
					t.Errorf("writer %d: interleaved read diverged", w)
					return
				}
			}
		})
	}
	// A walker process exercises the namespace concurrently.
	e.k.Go("walker", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(500 * time.Millisecond)
			if err := fs.Walk(p, "/", func(string, FileInfo) error { return nil }); err != nil {
				t.Errorf("walker: %v", err)
				return
			}
		}
	})
	e.k.Run()
	// Final verification after a full cache flush.
	e.run(t, func(p *sim.Proc) {
		if err := fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < writers; w++ {
			f, err := fs.Open(p, "/w"+itoa(w))
			if err != nil {
				t.Fatalf("open writer %d file: %v", w, err)
			}
			got := readAll(t, p, f)
			if !bytes.Equal(got, finals[w]) {
				t.Fatalf("writer %d final content diverged", w)
			}
		}
	})
	e.k.Stop()
}

// TestConcurrentReaders verifies that multiple readers of the same file
// proceed correctly, and that they wait for tertiary storage side by side:
// the file's segments read as non-resident (tertDev), each reader gives the
// lock up for its wait, so at least two waits are in flight at once and
// none happens with the lock held.
func TestConcurrentReaders(t *testing.T) {
	e, td := newTertEnv(t, 32, 64, Options{MaxInodes: 128})
	fs := e.fs
	var data []byte
	e.run(t, func(p *sim.Proc) {
		data = pattern(9, 30*BlockSize)
		f := writeFile(t, p, fs, "/shared", data)
		if err := fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		sendAway(t, p, fs, td, f)
	})
	for r := 0; r < 5; r++ {
		r := r
		e.k.Go("reader", func(p *sim.Proc) {
			f, err := fs.Open(p, "/shared")
			if err != nil {
				t.Errorf("reader %d: %v", r, err)
				return
			}
			buf := make([]byte, 2*BlockSize)
			for off := int64(r) * BlockSize; off+int64(len(buf)) <= int64(len(data)); off += 5 * BlockSize {
				if _, err := f.ReadAt(p, buf, off); err != nil && err != io.EOF {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if !bytes.Equal(buf, data[off:off+int64(len(buf))]) {
					t.Errorf("reader %d: data mismatch at %d", r, off)
					return
				}
			}
		})
	}
	e.k.Run()
	if td.maxInFlight < 2 || td.held != 0 {
		t.Fatalf("at most %d waits in flight at once and %d with the lock held, want at least 2 and 0", td.maxInFlight, td.held)
	}
}
