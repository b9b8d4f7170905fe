// Package addr implements HighLight's uniform block address space (§6.3,
// Figure 4 of the paper).
//
// Block addresses are 32-bit numbers naming 4 KB units, viewed as a
// (segment number, offset) pair. Disks are assigned to the bottom of the
// address space starting at block 0; tertiary storage is assigned to the
// top, with the end of the first volume at the largest usable block number,
// the end of the second volume just below the beginning of the first, and
// so on — but blocks still increase within each volume. Between the two
// regions lies a dead zone whose addresses are invalid; adding storage
// claims part of the dead zone.
//
// One segment's worth of address space at the very top is unusable: the
// all-ones block number is the out-of-band "unassigned" value, and boot
// blocks shift segment bases, leaving the last addressable segment short.
package addr

import (
	"fmt"
	"strings"
)

// BlockNo is a 32-bit file system block address (4 KB units).
type BlockNo uint32

// NilBlock is the out-of-band "no block assigned" address (the paper's -1).
const NilBlock BlockNo = ^BlockNo(0)

// SegNo numbers segments across the whole address space.
type SegNo uint32

// Geom describes one tertiary device: how many volumes it holds and how
// many segments fit on each volume (the maximum expected, §6.3).
type Geom struct {
	Vols       int
	SegsPerVol int
}

// Map is the address-space layout for one HighLight file system.
type Map struct {
	segBlocks int
	diskSegs  int
	devs      []Geom
	devBase   []SegNo // lowest segment number of each device's region
	top       SegNo   // first unusable segment (tertiary ends just below)
	tertSegs  int
	tertLow   SegNo
}

// New lays out diskSegs disk segments and the given tertiary devices in an
// address space of segBlocks-block segments. It panics if the regions
// collide (no dead zone left).
func New(segBlocks, diskSegs int, devs ...Geom) *Map {
	if segBlocks <= 0 || diskSegs <= 0 {
		panic("addr: segBlocks and diskSegs must be positive")
	}
	totalSegs := int64(1) << 32 / int64(segBlocks)
	m := &Map{
		segBlocks: segBlocks,
		diskSegs:  diskSegs,
		devs:      devs,
		top:       SegNo(totalSegs - 1), // last segment unusable
	}
	base := m.top
	for _, g := range devs {
		if g.Vols <= 0 || g.SegsPerVol <= 0 {
			panic("addr: tertiary geometry must be positive")
		}
		n := g.Vols * g.SegsPerVol
		m.tertSegs += n
		base -= SegNo(n)
		m.devBase = append(m.devBase, base)
	}
	m.tertLow = base
	if int64(diskSegs) >= int64(m.tertLow) {
		panic(fmt.Sprintf("addr: disk (%d segs) and tertiary (%d segs) regions collide", diskSegs, m.tertSegs))
	}
	return m
}

// SegBlocks reports the segment size in blocks.
func (m *Map) SegBlocks() int { return m.segBlocks }

// DiskSegs reports the number of disk segments.
func (m *Map) DiskSegs() int { return m.diskSegs }

// GrowDisk claims n segments of the dead zone for the disk region (§6.3:
// "the addition of tertiary or secondary storage is just a matter of
// claiming part of the dead zone by adjusting the boundaries"). It panics
// if the regions would collide.
func (m *Map) GrowDisk(n int) {
	if n <= 0 {
		panic("addr: GrowDisk with non-positive n")
	}
	if int64(m.diskSegs+n) >= int64(m.tertLow) {
		panic(fmt.Sprintf("addr: growing disk by %d segments collides with tertiary region", n))
	}
	m.diskSegs += n
}

// TertSegs reports the total number of tertiary segments.
func (m *Map) TertSegs() int { return m.tertSegs }

// Devices reports the tertiary device geometries.
func (m *Map) Devices() []Geom { return m.devs }

// BlockOf composes a block address from a segment number and offset.
func (m *Map) BlockOf(seg SegNo, off int) BlockNo {
	if off < 0 || off >= m.segBlocks {
		panic(fmt.Sprintf("addr: offset %d out of segment range [0,%d)", off, m.segBlocks))
	}
	return BlockNo(uint64(seg)*uint64(m.segBlocks) + uint64(off))
}

// SegOf extracts the segment number of a block address.
func (m *Map) SegOf(b BlockNo) SegNo { return SegNo(uint64(b) / uint64(m.segBlocks)) }

// OffOf extracts the within-segment offset of a block address.
func (m *Map) OffOf(b BlockNo) int { return int(uint64(b) % uint64(m.segBlocks)) }

// IsDiskSeg reports whether seg is a disk (secondary storage) segment.
func (m *Map) IsDiskSeg(seg SegNo) bool { return int64(seg) < int64(m.diskSegs) }

// IsTertiarySeg reports whether seg is a tertiary-storage segment.
func (m *Map) IsTertiarySeg(seg SegNo) bool { return seg >= m.tertLow && seg < m.top }

// Valid reports whether b addresses an existing disk or tertiary block.
func (m *Map) Valid(b BlockNo) bool {
	if b == NilBlock {
		return false
	}
	s := m.SegOf(b)
	return m.IsDiskSeg(s) || m.IsTertiarySeg(s)
}

// Loc resolves a tertiary segment number to (device, volume, segment
// within volume). ok is false for non-tertiary segments.
func (m *Map) Loc(seg SegNo) (device, vol, volseg int, ok bool) {
	if !m.IsTertiarySeg(seg) {
		return 0, 0, 0, false
	}
	for d, g := range m.devs {
		base := m.devBase[d]
		size := SegNo(g.Vols * g.SegsPerVol)
		if seg >= base && seg < base+size {
			rel := int(seg - base)
			// Volume 0 is at the TOP of the device region.
			volFromBottom := rel / g.SegsPerVol
			vol = g.Vols - 1 - volFromBottom
			volseg = rel % g.SegsPerVol
			return d, vol, volseg, true
		}
	}
	return 0, 0, 0, false
}

// SegForLoc composes the segment number of (device, volume, volseg).
func (m *Map) SegForLoc(device, vol, volseg int) SegNo {
	g := m.devs[device]
	if vol < 0 || vol >= g.Vols || volseg < 0 || volseg >= g.SegsPerVol {
		panic(fmt.Sprintf("addr: location (%d,%d,%d) out of range", device, vol, volseg))
	}
	volFromBottom := g.Vols - 1 - vol
	return m.devBase[device] + SegNo(volFromBottom*g.SegsPerVol+volseg)
}

// TertIndex maps a tertiary segment number to a dense index in
// [0, TertSegs), ordered by (device, volume, volseg) — the order in which
// the migrator consumes media. It is the row number in the tertiary
// segment summary file (tsegfile).
func (m *Map) TertIndex(seg SegNo) (int, bool) {
	d, v, s, ok := m.Loc(seg)
	if !ok {
		return 0, false
	}
	idx := 0
	for i := 0; i < d; i++ {
		idx += m.devs[i].Vols * m.devs[i].SegsPerVol
	}
	return idx + v*m.devs[d].SegsPerVol + s, true
}

// SegForIndex is the inverse of TertIndex.
func (m *Map) SegForIndex(idx int) SegNo {
	if idx < 0 || idx >= m.tertSegs {
		panic(fmt.Sprintf("addr: tertiary index %d out of range [0,%d)", idx, m.tertSegs))
	}
	for d, g := range m.devs {
		n := g.Vols * g.SegsPerVol
		if idx < n {
			return m.SegForLoc(d, idx/g.SegsPerVol, idx%g.SegsPerVol)
		}
		idx -= n
	}
	panic("addr: unreachable")
}

// Describe renders the address allocation as text — the content of the
// paper's Figure 4.
func (m *Map) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "block address space: %d-block segments, %d usable segments\n", m.segBlocks, int64(m.top))
	fmt.Fprintf(&b, "  disk:     segs [%d, %d)  blocks [0, %d)\n",
		0, m.diskSegs, uint64(m.diskSegs)*uint64(m.segBlocks))
	fmt.Fprintf(&b, "  dead zone: segs [%d, %d)  (invalid addresses, room for expansion)\n", m.diskSegs, uint64(m.tertLow))
	for d := len(m.devs) - 1; d >= 0; d-- {
		g := m.devs[d]
		fmt.Fprintf(&b, "  tertiary device %d: %d volumes x %d segs, segs [%d, %d)\n",
			d, g.Vols, g.SegsPerVol, uint64(m.devBase[d]), uint64(m.devBase[d])+uint64(g.Vols*g.SegsPerVol))
		for v := 0; v < g.Vols; v++ {
			lo := m.SegForLoc(d, v, 0)
			fmt.Fprintf(&b, "    vol %d: segs [%d, %d)\n", v, uint64(lo), uint64(lo)+uint64(g.SegsPerVol))
		}
	}
	fmt.Fprintf(&b, "  unusable: seg %d (out-of-band -1 block number; boot-block shift)\n", uint64(m.top))
	return b.String()
}
