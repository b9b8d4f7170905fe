package jukebox

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrLibraryOffline is returned by a down Library for every read and
// write. It is deliberately NOT classified as transient: a whole-changer
// outage (power, robotics, network partition to a remote library) does
// not clear within a retry budget, so the I/O process should fail over
// to a copy in another library immediately instead of burning retries.
var ErrLibraryOffline = errors.New("jukebox: library offline")

// Library wraps one robotic changer (any Footprint) as a failure domain
// in a multi-library tertiary tier. It adds a health bit — a down
// library refuses all I/O with ErrLibraryOffline — and delegates the
// introspection interfaces the routing, cleaning, and fault-report
// layers rely on (VolumeLoaded, IdleHealthyDrives, Stats, Profile,
// EraseVolume). Wrapping a device in an always-up Library is free: no
// virtual time is charged and every delegated answer is identical.
type Library struct {
	fp   Footprint
	id   int
	name string
	down bool
}

// NewLibrary wraps fp as library id. An empty name defaults to the
// device profile name (or "lib<id>" for non-jukebox footprints).
func NewLibrary(id int, name string, fp Footprint) *Library {
	if name == "" {
		if j, ok := fp.(*Jukebox); ok {
			name = fmt.Sprintf("%s[%d]", j.Profile().Name, id)
		} else {
			name = fmt.Sprintf("lib%d", id)
		}
	}
	return &Library{fp: fp, id: id, name: name}
}

// AsLibraries wraps a device list into libraries, preserving devices
// that already are *Library (so callers keep their handle for fault
// injection) and numbering the rest by position.
func AsLibraries(fps []Footprint) []*Library {
	out := make([]*Library, len(fps))
	for i, fp := range fps {
		if l, ok := fp.(*Library); ok {
			out[i] = l
			continue
		}
		out[i] = NewLibrary(i, "", fp)
	}
	return out
}

// ID reports the library's index in the tertiary device list.
func (l *Library) ID() int { return l.id }

// Name reports the library's display name.
func (l *Library) Name() string { return l.name }

// Down reports whether the whole library is out of service.
func (l *Library) Down() bool { return l.down }

// SetDown fails (true) or revives (false) the entire library. In-flight
// operations complete; new ones fail with ErrLibraryOffline.
func (l *Library) SetDown(down bool) { l.down = down }

// LendSegment implements Footprint, gating on library health.
func (l *Library) LendSegment(p *sim.Proc, vol, seg int) ([]byte, error) {
	if l.down {
		return nil, fmt.Errorf("%w: %s", ErrLibraryOffline, l.name)
	}
	return l.fp.LendSegment(p, vol, seg)
}

// WriteSegment implements Footprint, gating on library health.
func (l *Library) WriteSegment(p *sim.Proc, vol, seg int, buf []byte) error {
	if l.down {
		return fmt.Errorf("%w: %s", ErrLibraryOffline, l.name)
	}
	return l.fp.WriteSegment(p, vol, seg, buf)
}

// AdoptSegment implements Footprint, gating on library health.
func (l *Library) AdoptSegment(p *sim.Proc, vol, seg int, buf []byte) error {
	if l.down {
		return fmt.Errorf("%w: %s", ErrLibraryOffline, l.name)
	}
	return l.fp.AdoptSegment(p, vol, seg, buf)
}

// Volumes implements Footprint.
func (l *Library) Volumes() int { return l.fp.Volumes() }

// SegmentsPerVolume implements Footprint.
func (l *Library) SegmentsPerVolume() int { return l.fp.SegmentsPerVolume() }

// VolumeLoaded reports whether vol sits in a healthy drive. A down
// library never counts as loaded: nothing can be served from it.
func (l *Library) VolumeLoaded(vol int) bool {
	if l.down {
		return false
	}
	if vc, ok := l.fp.(interface{ VolumeLoaded(int) bool }); ok {
		return vc.VolumeLoaded(vol)
	}
	return false
}

// Writing forwards Jukebox.Writing to the wrapped device, down or not: the
// count of writes on their way must come back to zero.
func (l *Library) Writing(n int) {
	if w, ok := l.fp.(interface{ Writing(int) }); ok {
		w.Writing(n)
	}
}

// IdleHealthyDrives reports drives that could start a request now; zero
// for a down library.
func (l *Library) IdleHealthyDrives() int {
	if l.down {
		return 0
	}
	if c, ok := l.fp.(interface{ IdleHealthyDrives() int }); ok {
		return c.IdleHealthyDrives()
	}
	return 0
}

// Stats delegates to the wrapped device (zero for footprints without
// counters).
func (l *Library) Stats() Stats {
	if s, ok := l.fp.(interface{ Stats() Stats }); ok {
		return s.Stats()
	}
	return Stats{}
}

// Profile delegates to the wrapped device; other footprints get a
// profile carrying only the library name.
func (l *Library) Profile() MediaProfile {
	if pr, ok := l.fp.(interface{ Profile() MediaProfile }); ok {
		return pr.Profile()
	}
	return MediaProfile{Name: l.name}
}

// EraseVolume delegates media reclamation to the wrapped device when it
// supports erasure; a no-op otherwise.
func (l *Library) EraseVolume(vol int) {
	if ev, ok := l.fp.(interface{ EraseVolume(int) }); ok {
		ev.EraseVolume(vol)
	}
}
