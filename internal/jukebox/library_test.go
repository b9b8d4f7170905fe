package jukebox

import (
	"errors"
	"testing"

	"repro/internal/lfs"
	"repro/internal/sim"
)

func TestSegmentsPerVolumeZeroVolumes(t *testing.T) {
	// A zero-volume jukebox has no geometry to report; SegmentsPerVolume
	// must return 0 instead of panicking on an empty volume slice.
	j := &Jukebox{}
	if got := j.SegmentsPerVolume(); got != 0 {
		t.Fatalf("SegmentsPerVolume on empty jukebox = %d, want 0", got)
	}
}

func TestLibraryOfflineGating(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		j := MustNew(k, MO6300, 1, 2, 8, 4*lfs.BlockSize, nil)
		l := NewLibrary(0, "", j)
		if l.Down() {
			t.Fatal("new library reports down")
		}

		buf := make([]byte, 4*lfs.BlockSize)
		if err := l.WriteSegment(p, 0, 0, buf); err != nil {
			t.Fatalf("write through healthy library: %v", err)
		}
		if _, err := l.LendSegment(p, 0, 0); err != nil {
			t.Fatalf("read through healthy library: %v", err)
		}
		if l.IdleHealthyDrives() == 0 {
			t.Fatal("healthy idle library reports no idle drives")
		}

		l.SetDown(true)
		if !l.Down() {
			t.Fatal("SetDown(true) did not mark the library down")
		}
		if _, err := l.LendSegment(p, 0, 0); !errors.Is(err, ErrLibraryOffline) {
			t.Fatalf("read from down library: got %v, want ErrLibraryOffline", err)
		}
		if err := l.WriteSegment(p, 0, 1, buf); !errors.Is(err, ErrLibraryOffline) {
			t.Fatalf("write to down library: got %v, want ErrLibraryOffline", err)
		}
		if err := l.AdoptSegment(p, 0, 1, buf); !errors.Is(err, ErrLibraryOffline) {
			t.Fatalf("adoption by down library: got %v, want ErrLibraryOffline", err)
		}
		if l.IdleHealthyDrives() != 0 {
			t.Fatal("down library reports idle drives")
		}
		if l.VolumeLoaded(0) {
			t.Fatal("down library reports a loaded volume")
		}

		// Geometry keeps delegating even while down — the address map and
		// repair planner still need it.
		if l.Volumes() != j.Volumes() || l.SegmentsPerVolume() != j.SegmentsPerVolume() {
			t.Fatal("down library stopped delegating geometry")
		}

		l.SetDown(false)
		if _, err := l.LendSegment(p, 0, 0); err != nil {
			t.Fatalf("read after revival: %v", err)
		}
	})
	k.Stop()
}

func TestAsLibrariesPreservesIdentity(t *testing.T) {
	k := sim.NewKernel()
	j0 := MustNew(k, MO6300, 1, 1, 4, 4*lfs.BlockSize, nil)
	j1 := MustNew(k, MO6300, 1, 1, 4, 4*lfs.BlockSize, nil)
	pre := NewLibrary(7, "vault", j1)

	libs := AsLibraries([]Footprint{j0, pre})
	if len(libs) != 2 {
		t.Fatalf("AsLibraries returned %d entries, want 2", len(libs))
	}
	if libs[0].fp != Footprint(j0) {
		t.Fatal("plain footprint was not wrapped around the original jukebox")
	}
	if libs[0].ID() != 0 {
		t.Fatalf("wrapped library got ID %d, want positional 0", libs[0].ID())
	}
	if libs[1] != pre {
		t.Fatal("already-wrapped *Library was re-wrapped instead of passed through")
	}
	if libs[1].Name() != "vault" || libs[1].ID() != 7 {
		t.Fatal("pass-through library lost its name or ID")
	}
	k.Stop()
}
