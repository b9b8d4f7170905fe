package addr

import (
	"strings"
	"testing"
	"testing/quick"
)

func testMap() *Map {
	// 256-block (1 MB) segments, 100 disk segments, one jukebox with
	// 4 volumes of 40 segments, plus a small second device.
	return New(256, 100, Geom{Vols: 4, SegsPerVol: 40}, Geom{Vols: 2, SegsPerVol: 10})
}

func TestBlockSegRoundTrip(t *testing.T) {
	m := testMap()
	cases := []struct {
		seg SegNo
		off int
	}{
		{0, 0}, {0, 255}, {99, 128}, {m.tertLow, 0}, {m.top - 1, 255},
	}
	for _, c := range cases {
		b := m.BlockOf(c.seg, c.off)
		if m.SegOf(b) != c.seg || m.OffOf(b) != c.off {
			t.Errorf("round trip (%d,%d) -> %d -> (%d,%d)", c.seg, c.off, b, m.SegOf(b), m.OffOf(b))
		}
	}
}

// isDeadZone reports whether seg lies between the disk and tertiary regions
// (invalid to access, available for future expansion).
func (m *Map) isDeadZone(seg SegNo) bool {
	return int64(seg) >= int64(m.diskSegs) && seg < m.tertLow
}

func TestRegionClassification(t *testing.T) {
	m := testMap()
	if !m.IsDiskSeg(0) || !m.IsDiskSeg(99) {
		t.Error("disk segs misclassified")
	}
	if m.IsDiskSeg(100) {
		t.Error("seg 100 should not be disk")
	}
	if !m.isDeadZone(100) || !m.isDeadZone(m.tertLow-1) {
		t.Error("dead zone misclassified")
	}
	if !m.IsTertiarySeg(m.tertLow) || !m.IsTertiarySeg(m.top-1) {
		t.Error("tertiary segs misclassified")
	}
	if m.IsTertiarySeg(m.top) {
		t.Error("unusable top segment classified tertiary")
	}
	if m.Valid(NilBlock) {
		t.Error("NilBlock validated")
	}
	if !m.Valid(m.BlockOf(0, 0)) || !m.Valid(m.BlockOf(m.top-1, 0)) {
		t.Error("valid addresses rejected")
	}
	if m.Valid(m.BlockOf(200, 0)) {
		t.Error("dead zone address validated")
	}
}

func TestVolumeZeroEndsAtTop(t *testing.T) {
	// Figure 4: the end of the first volume is at the largest block
	// number; the end of the second volume is just below the beginning
	// of the first.
	m := New(256, 100, Geom{Vols: 3, SegsPerVol: 10})
	v0lo := m.SegForLoc(0, 0, 0)
	if v0lo+10 != m.top {
		t.Fatalf("vol 0 ends at seg %d, want top %d", uint64(v0lo+10), uint64(m.top))
	}
	v1lo := m.SegForLoc(0, 1, 0)
	if v1lo+10 != v0lo {
		t.Fatalf("vol 1 [%d,..) should end at vol 0 start %d", uint64(v1lo), uint64(v0lo))
	}
	// Blocks still increase within each volume.
	if m.SegForLoc(0, 1, 5) != v1lo+5 {
		t.Fatal("within-volume segments not increasing")
	}
}

func TestSecondDeviceBelowFirst(t *testing.T) {
	m := testMap()
	d0lo := m.devBase[0]
	d1lo := m.devBase[1]
	if d1lo+SegNo(2*10) != d0lo {
		t.Fatalf("device 1 region [%d,..) should end at device 0 base %d", uint64(d1lo), uint64(d0lo))
	}
}

func TestLocRoundTrip(t *testing.T) {
	m := testMap()
	for d, g := range m.Devices() {
		for v := 0; v < g.Vols; v++ {
			for s := 0; s < g.SegsPerVol; s++ {
				seg := m.SegForLoc(d, v, s)
				gd, gv, gs, ok := m.Loc(seg)
				if !ok || gd != d || gv != v || gs != s {
					t.Fatalf("Loc(SegForLoc(%d,%d,%d)) = %d,%d,%d,%v", d, v, s, gd, gv, gs, ok)
				}
			}
		}
	}
	if _, _, _, ok := m.Loc(50); ok {
		t.Error("disk segment resolved as tertiary")
	}
	if _, _, _, ok := m.Loc(m.tertLow - 1); ok {
		t.Error("dead zone resolved as tertiary")
	}
}

func TestTertIndexDenseAndBijective(t *testing.T) {
	m := testMap()
	seen := make(map[int]bool)
	total := m.TertSegs()
	for d, g := range m.Devices() {
		for v := 0; v < g.Vols; v++ {
			for s := 0; s < g.SegsPerVol; s++ {
				seg := m.SegForLoc(d, v, s)
				idx, ok := m.TertIndex(seg)
				if !ok {
					t.Fatalf("TertIndex failed for %d,%d,%d", d, v, s)
				}
				if idx < 0 || idx >= total || seen[idx] {
					t.Fatalf("index %d out of range or duplicated", idx)
				}
				seen[idx] = true
				if m.SegForIndex(idx) != seg {
					t.Fatalf("SegForIndex(%d) != seg %d", idx, seg)
				}
			}
		}
	}
	if len(seen) != total {
		t.Fatalf("covered %d indices, want %d", len(seen), total)
	}
}

func TestTertIndexOrderFollowsConsumptionOrder(t *testing.T) {
	// The migrator consumes device 0 volume 0 first; its tsegfile rows
	// must come first.
	m := testMap()
	if idx, _ := m.TertIndex(m.SegForLoc(0, 0, 0)); idx != 0 {
		t.Fatalf("first consumed segment has index %d, want 0", idx)
	}
	if idx, _ := m.TertIndex(m.SegForLoc(0, 0, 1)); idx != 1 {
		t.Fatalf("second segment of vol 0 has index %d, want 1", idx)
	}
	if idx, _ := m.TertIndex(m.SegForLoc(0, 1, 0)); idx != 40 {
		t.Fatalf("vol 1 starts at index %d, want 40", idx)
	}
	if idx, _ := m.TertIndex(m.SegForLoc(1, 0, 0)); idx != 160 {
		t.Fatalf("device 1 starts at index %d, want 160", idx)
	}
}

func TestPropertyBlockAddressRoundTrip(t *testing.T) {
	m := testMap()
	f := func(raw uint32) bool {
		b := BlockNo(raw)
		if b == NilBlock {
			return true
		}
		seg, off := m.SegOf(b), m.OffOf(b)
		return m.BlockOf(seg, off) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRegionsPartitionSpace(t *testing.T) {
	m := testMap()
	f := func(raw uint32) bool {
		seg := m.SegOf(BlockNo(raw))
		n := 0
		if m.IsDiskSeg(seg) {
			n++
		}
		if m.isDeadZone(seg) {
			n++
		}
		if m.IsTertiarySeg(seg) {
			n++
		}
		if seg >= m.top { // unusable top region
			return n == 0
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on region collision")
		}
	}()
	// 16-block segments: 2^28 total segments; ask for everything.
	New(16, 1<<28-100, Geom{Vols: 1, SegsPerVol: 200})
}

func TestDescribeMentionsAllRegions(t *testing.T) {
	m := testMap()
	s := m.Describe()
	for _, want := range []string{"disk:", "dead zone", "tertiary device 0", "tertiary device 1", "vol 0", "unusable"} {
		if !strings.Contains(s, want) {
			t.Errorf("Describe missing %q:\n%s", want, s)
		}
	}
}

func TestGrowDiskClaimsDeadZone(t *testing.T) {
	m := New(256, 100, Geom{Vols: 2, SegsPerVol: 10})
	if !m.isDeadZone(150) {
		t.Fatal("seg 150 should start in the dead zone")
	}
	m.GrowDisk(100)
	if m.DiskSegs() != 200 {
		t.Fatalf("DiskSegs = %d after growth", m.DiskSegs())
	}
	if !m.IsDiskSeg(150) || m.isDeadZone(150) {
		t.Fatal("seg 150 not reclassified as disk after growth")
	}
	if m.IsDiskSeg(200) {
		t.Fatal("seg 200 wrongly classified disk")
	}
	// Tertiary region untouched.
	if _, ok := m.TertIndex(m.SegForLoc(0, 0, 0)); !ok {
		t.Fatal("tertiary mapping broken by growth")
	}
}

func TestGrowDiskCollisionPanics(t *testing.T) {
	m := New(16, 100, Geom{Vols: 1, SegsPerVol: 100})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on collision")
		}
	}()
	m.GrowDisk(1 << 28) // beyond the tertiary base
}
