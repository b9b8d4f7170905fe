package lfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sim"
)

// region reads table region r off the disk.
func (e *testEnv) region(t *testing.T, p *sim.Proc, fs *FS, r uint32) []byte {
	t.Helper()
	buf := make([]byte, int(fs.sb.TableBlocks)*BlockSize)
	if err := e.disk.ReadBlocks(p, int64(fs.tableRegionBlock(r, 0)), buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// blockDiff counts the blocks of a and b that differ, and the runs they make.
func blockDiff(a, b []byte) (blocks, runs int) {
	prev := false
	for off := 0; off < len(a); off += BlockSize {
		d := !bytes.Equal(a[off:off+BlockSize], b[off:off+BlockSize])
		if d {
			blocks++
			if !prev {
				runs++
			}
		}
		prev = d
	}
	return blocks, runs
}

// tableCheckpoint runs CheckpointTables and returns the requests and bytes it
// wrote to the disk.
func (e *testEnv) tableCheckpoint(t *testing.T, p *sim.Proc, fs *FS) (writes, written int64) {
	t.Helper()
	before := e.disk.Stats()
	if err := fs.CheckpointTables(p); err != nil {
		t.Fatal(err)
	}
	after := e.disk.Stats()
	return after.Writes - before.Writes, after.BytesWritten - before.BytesWritten
}

// TestCheckpointWritesOnlyChangedTableBlocks: once both regions have been
// written, a table-only checkpoint after one inode-map change writes the runs
// of table blocks that changed, one request each, and the header; a remount
// then reads the tables the file system holds in memory.
func TestCheckpointWritesOnlyChangedTableBlocks(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 512})
	var want []byte
	e.run(t, func(p *sim.Proc) {
		tb := int64(e.fs.sb.TableBlocks)
		if _, n := e.tableCheckpoint(t, p, e.fs); n != (tb+1)*BlockSize {
			t.Fatalf("the first checkpoint after Format wrote %d bytes, want the region whole and a header: %d", n, (tb+1)*BlockSize)
		}
		writeFile(t, p, e.fs, "/f", pattern(3, 2*BlockSize))
		if err := e.fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		r := uint32(e.fs.serial % 2)
		old := e.region(t, p, e.fs, r)
		writes, n := e.tableCheckpoint(t, p, e.fs)
		blocks, runs := blockDiff(old, e.region(t, p, e.fs, r))
		if blocks == 0 || int64(blocks) >= tb {
			t.Fatalf("%d of %d table blocks changed: the test changes some, not all", blocks, tb)
		}
		if n != int64(blocks+1)*BlockSize || writes != int64(runs+1) {
			t.Errorf("checkpoint wrote %d bytes in %d requests, want %d changed blocks in %d runs and a header",
				n, writes, blocks, runs)
		}
		e.tableCheckpoint(t, p, e.fs) // the other region catches up
		if _, n := e.tableCheckpoint(t, p, e.fs); n != BlockSize {
			t.Errorf("a checkpoint with nothing changed since the region's last wrote %d bytes, want the header alone", n)
		}
		want = bytes.Clone(e.fs.serializeTables())
	})
	e.run(t, func(p *sim.Proc) {
		fs2, err := Mount(p, DiskDevice{e.disk}, e.amap, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fs2.serializeTables(), want) {
			t.Error("the remounted tables differ from the ones the file system held")
		}
	})
}

// TestCheckpointWritesUnknownRegionWhole: the first checkpoint after a mount
// writes the region the mount did not read whole, and the next, to the region
// it read, only what changed; so does the checkpoint after a table write that
// failed.
func TestCheckpointWritesUnknownRegionWhole(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 512})
	e.run(t, func(p *sim.Proc) {
		writeFile(t, p, e.fs, "/f", pattern(3, 2*BlockSize))
		if err := e.fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
	})
	e.run(t, func(p *sim.Proc) {
		fs, err := Mount(p, DiskDevice{e.disk}, e.amap, Options{})
		if err != nil {
			t.Fatal(err)
		}
		whole := int64(fs.sb.TableBlocks+1) * BlockSize
		if _, n := e.tableCheckpoint(t, p, fs); n != whole {
			t.Errorf("the first checkpoint after a mount wrote %d bytes, want %d", n, whole)
		}
		if _, n := e.tableCheckpoint(t, p, fs); n >= whole {
			t.Errorf("the checkpoint to the region the mount read wrote %d bytes, want less than %d", n, whole)
		}
		tables := fs.tableRegionBlock(uint32(fs.serial%2), 0)
		failed := errors.New("injected table write fault")
		e.disk.Fault = func(op string, blk int64) error {
			if op == "write" && blk >= int64(tables) && blk < int64(tables)+int64(fs.sb.TableBlocks) {
				e.disk.Fault = nil
				return failed
			}
			return nil
		}
		writeFile(t, p, fs, "/g", pattern(4, BlockSize))
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.CheckpointTables(p); !errors.Is(err, failed) {
			t.Fatalf("CheckpointTables returned %v, want the injected fault", err)
		}
		if _, n := e.tableCheckpoint(t, p, fs); n != whole {
			t.Errorf("the checkpoint after a failed table write wrote %d bytes, want %d", n, whole)
		}
	})
}
