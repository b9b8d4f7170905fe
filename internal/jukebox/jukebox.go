// Package jukebox models robotic tertiary storage devices: the paper's HP
// 6300 magneto-optic autochanger, exposed through the Footprint abstract
// robotic device interface of §2/§6.5.
//
// A jukebox has a set of drives, a robot picker, and an array of media
// volumes, each holding a fixed array of segments. Loading a volume costs a
// swap (13.5 s for the MO changer, Table 5) during which the picker — and,
// matching the paper's non-disconnecting device driver — the whole SCSI bus
// is held.
package jukebox

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/dev"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ErrEndOfMedium is returned by WriteSegment when the volume cannot hold
// the segment (e.g. device-level compression fell short of expectations,
// §6.3). HighLight responds by marking the volume full and re-writing the
// segment to the next volume.
var ErrEndOfMedium = errors.New("jukebox: end of medium")

// Typed sentinel errors, errors.Is-matchable so the recovery layer can
// tell programmer bugs (bad arguments: never retried) from media and
// mechanism faults (retried or failed over).
var (
	// ErrOutOfRange is returned for a volume, segment, or buffer size
	// outside the device geometry. It marks a software bug in the caller,
	// not a media fault, and must never be retried.
	ErrOutOfRange = errors.New("jukebox: argument out of range")
	// ErrDriveOffline is returned when no healthy drive can serve a
	// request (all drives offline/stuck). It is treated as transient:
	// the drive may come back, so callers retry with backoff.
	ErrDriveOffline = errors.New("jukebox: no healthy drive available")
)

// Footprint is Sequoia's abstract robotic storage interface: HighLight sees
// volumes of segments and never the device details (§6.5). The library is
// linked into the I/O server; an RPC transport could implement the same
// interface for a remote jukebox.
type Footprint interface {
	// LendSegment reads segment seg of volume vol and returns the medium's
	// image of it, one segment long, or nil for a segment never written
	// (it reads as zeroes). The image is lent, not copied: it never changes
	// afterwards (a rewrite installs a new one), and the caller must not
	// change it either.
	LendSegment(p *sim.Proc, vol, seg int) ([]byte, error)
	// WriteSegment writes segment seg of volume vol from buf. It returns
	// ErrEndOfMedium if the volume is full.
	WriteSegment(p *sim.Proc, vol, seg int, buf []byte) error
	// AdoptSegment is WriteSegment that keeps buf as the medium's image of
	// the segment when it returns nil: the caller hands buf over for good
	// and must never change it again. On an error buf is the caller's still.
	AdoptSegment(p *sim.Proc, vol, seg int, buf []byte) error
	// Volumes reports the number of media volumes.
	Volumes() int
	// SegmentsPerVolume reports the nominal segment capacity per volume.
	SegmentsPerVolume() int
}

// MediaProfile is the timing model of a tertiary device family.
type MediaProfile struct {
	Name       string
	MediaRead  int64    // bytes/second off the medium
	MediaWrite int64    // bytes/second onto the medium
	Rotation   sim.Time // per-request rotational latency
	SeekBase   sim.Time // minimum positioning time for a non-sequential access
	SeekPerSeg sim.Time // additional positioning time per segment of distance
	SwapTime   sim.Time // eject + robot move + load + ready
}

// MO6300 models the HP 6300 magneto-optic changer used in §7, calibrated:
// its effective rates (with the shared 3.9 MB/s SCSI bus and per-request
// rotation) match Table 5: MO read 451 KB/s, MO write 204 KB/s, volume
// change 13.5 s.
var MO6300 = MediaProfile{
	Name:       "HP6300-MO",
	MediaRead:  513 * 1024,
	MediaWrite: 215 * 1024,
	Rotation:   12 * time.Millisecond,
	SeekBase:   40 * time.Millisecond,
	SeekPerSeg: 300 * time.Microsecond,
	SwapTime:   13400 * time.Millisecond,
}

// Stats accumulates jukebox counters, used for the Table 4 breakdown and
// the fault-visibility report (hldump -faults).
type Stats struct {
	Swaps                   int64
	SwapTime                sim.Time
	Reads, Writes           int64
	BytesRead, BytesWritten int64
	ReadTime, WriteTime     sim.Time // includes positioning and swaps

	ReadFaults  int64 // reads aborted by the Fault hook
	WriteFaults int64 // writes aborted by the Fault hook
	LoadFaults  int64 // volume loads aborted by the Fault hook
	Failovers   int64 // requests redirected off an offline drive
}

type volume struct {
	nominalSegs int
	actualSegs  int // may be < nominal when compression falls short
	full        bool
	store       [][]byte // by segment, nominalSegs long; nil = never written; an image never changes once written
}

type drive struct {
	id      int
	arm     *sim.Resource
	loaded  int // volume index, -1 if empty
	pos     int // head position in segments
	lastUse sim.Time
	offline bool // stuck or failed: not eligible for new requests
}

// Jukebox is a simulated robotic storage device implementing Footprint.
type Jukebox struct {
	k          *sim.Kernel
	prof       MediaProfile
	segBytes   int
	segsPerVol int
	drives     []*drive
	vols       []*volume
	picker     *sim.Resource
	bus        *dev.Bus
	stats      Stats

	obs   *obs.Obs // nil = not instrumented
	track string

	// WriteDrive is the drive reserved for the currently-active writing
	// volume (§7: "one drive was allocated for the currently-active
	// writing segment, and the other for reading other platters") while a
	// write is on its way (Writing): reads then take it only when their
	// volume is already loaded there, and otherwise as any other drive. A
	// write whose volume must be loaded takes it, except that it leaves a
	// platter with room left where it is when another drive stands empty
	// (driveFor). -1 disables the reservation.
	WriteDrive int
	writers    int // writes on their way to the changer (Writing)

	// Fault, if non-nil, may inject media errors per (op, vol, seg).
	// op is "read" or "write" (checked before the transfer), or "load"
	// with seg == -1 (checked before a media swap loads vol into a
	// drive). Injected errors should wrap dev.ErrTransientMedia or
	// dev.ErrPermanentMedia so the recovery layer can classify them.
	Fault func(op string, vol, seg int) error

	// Cut, if non-nil, counts two events per segment write, the first with
	// only its first half on the medium, and one per EraseVolume.
	Cut *dev.Cut
}

// ErrBadGeometry is returned by New for a configuration without at least
// one drive, one volume, and one segment per volume.
var ErrBadGeometry = errors.New("jukebox: need at least one drive, volume, and segment")

// New returns a jukebox with ndrives drives and nvols volumes of
// segsPerVol segments of segBytes bytes. bus may be nil.
func New(k *sim.Kernel, prof MediaProfile, ndrives, nvols, segsPerVol, segBytes int, bus *dev.Bus) (*Jukebox, error) {
	if ndrives < 1 || nvols < 1 || segsPerVol < 1 {
		return nil, fmt.Errorf("%w: %d drives, %d volumes, %d segments/volume", ErrBadGeometry, ndrives, nvols, segsPerVol)
	}
	j := &Jukebox{
		k:          k,
		prof:       prof,
		segBytes:   segBytes,
		segsPerVol: segsPerVol,
		picker:     k.NewResource(prof.Name + ".picker"),
		bus:        bus,
		WriteDrive: 0,
	}
	if ndrives == 1 {
		j.WriteDrive = -1 // no spare drive to reserve
	}
	for i := 0; i < ndrives; i++ {
		j.drives = append(j.drives, &drive{
			id:     i,
			arm:    k.NewResource(fmt.Sprintf("%s.drive%d", prof.Name, i)),
			loaded: -1,
		})
	}
	for i := 0; i < nvols; i++ {
		j.vols = append(j.vols, &volume{
			nominalSegs: segsPerVol,
			actualSegs:  segsPerVol,
			store:       make([][]byte, segsPerVol),
		})
	}
	return j, nil
}

// MustNew is New panicking on a bad configuration — for tests and
// examples with static geometry.
func MustNew(k *sim.Kernel, prof MediaProfile, ndrives, nvols, segsPerVol, segBytes int, bus *dev.Bus) *Jukebox {
	j, err := New(k, prof, ndrives, nvols, segsPerVol, segBytes, bus)
	if err != nil {
		panic(err)
	}
	return j
}

// Volumes implements Footprint.
func (j *Jukebox) Volumes() int { return len(j.vols) }

// SegmentsPerVolume implements Footprint. The nominal geometry is kept in
// the jukebox itself, not derived from vols[0], so an emptied or retired
// library (zero volumes) can still be introspected without panicking.
func (j *Jukebox) SegmentsPerVolume() int {
	if len(j.vols) == 0 {
		return 0
	}
	return j.segsPerVol
}

// SegmentBytes reports the transfer unit size in bytes.
func (j *Jukebox) SegmentBytes() int { return j.segBytes }

// SetObs attaches an observability domain: segment reads/writes and
// media swaps emit spans on the given track (default: the profile
// name). Instrumentation charges no virtual time.
func (j *Jukebox) SetObs(o *obs.Obs, track string) {
	if track == "" {
		track = j.prof.Name
	}
	j.obs, j.track = o, track
}

// Stats returns a snapshot of the counters.
func (j *Jukebox) Stats() Stats { return j.stats }

// Profile reports the media timing profile.
func (j *Jukebox) Profile() MediaProfile { return j.prof }

// SetActualSegments declares that volume vol can really hold only n
// segments (modelling worse-than-expected compression, §6.3).
func (j *Jukebox) SetActualSegments(vol, n int) {
	j.vols[vol].actualSegs = n
}

// EraseVolume discards all data on vol and clears its full mark (media
// reclamation by the tertiary cleaner).
func (j *Jukebox) EraseVolume(vol int) {
	v := j.vols[vol]
	clear(v.store)
	v.full = false
	j.Cut.Tick(1)
}

// Writing tells the changer that n more writes (fewer, for n < 0) are on
// their way to it, queued or in flight. While any are, reads keep off the
// write drive, so that the writing platter stays mounted between them.
func (j *Jukebox) Writing(n int) { j.writers += n }

// VolumeLoaded reports whether vol currently sits in a healthy drive (no
// swap needed to access it) — the "closest copy" test of §5.4. A volume
// stuck in an offline drive does not count: serving it requires a swap.
func (j *Jukebox) VolumeLoaded(vol int) bool {
	for _, d := range j.drives {
		if d.loaded == vol && !d.offline {
			return true
		}
	}
	return false
}

func (j *Jukebox) checkArgs(vol, seg, n int) error {
	if vol < 0 || vol >= len(j.vols) {
		return fmt.Errorf("%w: volume %d not in [0,%d)", ErrOutOfRange, vol, len(j.vols))
	}
	if seg < 0 || seg >= j.vols[vol].nominalSegs {
		return fmt.Errorf("%w: segment %d not in [0,%d)", ErrOutOfRange, seg, j.vols[vol].nominalSegs)
	}
	if n != j.segBytes {
		return fmt.Errorf("%w: buffer %d bytes, want %d", ErrOutOfRange, n, j.segBytes)
	}
	return nil
}

// SetDriveOffline marks drive d unhealthy (stuck robot arm, failed drive)
// or returns it to service. An offline drive finishes its in-flight
// operation but accepts no new requests; other drives take over (failover)
// until every drive is offline, at which point operations fail with
// ErrDriveOffline.
func (j *Jukebox) SetDriveOffline(d int, offline bool) {
	j.drives[d].offline = offline
}

// IdleHealthyDrives reports how many healthy drives are not currently
// serving a request (their arms are free). Nothing in the program asks:
// the fetch router ranks libraries by the transfers it has outstanding
// there. benchmark/ checks that its probes forward the method.
func (j *Jukebox) IdleHealthyDrives() int {
	n := 0
	for _, d := range j.drives {
		if !d.offline && !d.arm.Busy() {
			n++
		}
	}
	return n
}

// healthyDrives reports how many drives accept new requests.
func (j *Jukebox) healthyDrives() int {
	n := 0
	for _, d := range j.drives {
		if !d.offline {
			n++
		}
	}
	return n
}

// hasRoom reports whether vol can still take a segment it does not hold.
func (j *Jukebox) hasRoom(vol int) bool {
	v := j.vols[vol]
	if v.full {
		return false
	}
	for _, s := range v.store[:min(v.actualSegs, len(v.store))] {
		if s == nil {
			return true
		}
	}
	return false
}

// emptyIdleDrive returns a healthy drive other than the reserved write
// drive that holds no volume and serves no request, or nil.
func (j *Jukebox) emptyIdleDrive() *drive {
	for _, d := range j.drives {
		if d.id != j.WriteDrive && d.loaded < 0 && !d.offline && !d.arm.Busy() {
			return d
		}
	}
	return nil
}

// driveFor selects and loads a drive for volume vol, paying swap costs as
// needed, and returns it with its arm held. Offline drives are skipped
// (failover to the remaining drives); with every drive offline it fails
// with ErrDriveOffline, which the recovery layer retries with backoff.
func (j *Jukebox) driveFor(p *sim.Proc, vol int, forWrite bool) (*drive, error) {
	for attempt := 0; attempt <= len(j.drives); attempt++ {
		if j.healthyDrives() == 0 {
			return nil, fmt.Errorf("%w: %s: %d drives, all offline", ErrDriveOffline, j.prof.Name, len(j.drives))
		}
		// A volume already in a healthy drive is always served there
		// (the writing drive also fulfils read requests for its
		// platter, §7).
		for _, d := range j.drives {
			if d.loaded != vol {
				continue
			}
			if d.offline {
				// The natural drive is stuck: fail over to another
				// drive (which pays a swap to re-load the volume).
				j.stats.Failovers++
				break
			}
			d.arm.Acquire(p)
			if d.loaded == vol && !d.offline { // still there after waiting
				d.lastUse = p.Now()
				return d, nil
			}
			d.arm.Release(p)
			break
		}
		// Choose a drive to (re)load: the reserved write drive for
		// writes, otherwise the least-recently-used drive, the write drive
		// not while a write is on its way — offline drives excluded in
		// both cases. Idle arms are preferred over busy ones: with
		// several I/O streams in flight, the LRU drive is often the one
		// a concurrent request just started loading, and picking it would
		// swap that volume straight back out. With a single stream every
		// arm is idle at pick time, so the historical LRU choice is
		// unchanged.
		var pick *drive
		pickBusy := false
		if forWrite && j.WriteDrive >= 0 && !j.drives[j.WriteDrive].offline {
			pick = j.drives[j.WriteDrive]
			// With striped allocation several volumes are being written
			// in turn. Swapping one of them out of the write drive for
			// the next, and back again for the write after, costs two
			// swaps a round while another drive stands empty: load that
			// one instead. A platter with no room left is not going to
			// be written again: the write drive moves on from it and
			// the empty drive stays free for reads.
			if pick.loaded >= 0 && j.hasRoom(pick.loaded) {
				if e := j.emptyIdleDrive(); e != nil {
					pick = e
				}
			}
		} else {
			if forWrite && j.WriteDrive >= 0 {
				j.stats.Failovers++ // reserved write drive is down
			}
			for _, d := range j.drives {
				if d.offline {
					continue
				}
				if j.WriteDrive >= 0 && d.id == j.WriteDrive && !forWrite && j.writers > 0 &&
					j.healthyDrives() > 1 && !j.drives[j.WriteDrive].offline {
					continue
				}
				busy := d.arm.Busy()
				switch {
				case pick == nil || (pickBusy && !busy):
					pick, pickBusy = d, busy
				case busy == pickBusy && d.lastUse < pick.lastUse:
					pick = d
				}
			}
		}
		if pick == nil {
			continue // raced with drives going offline: re-evaluate
		}
		pick.arm.Acquire(p)
		if pick.offline { // went offline while we waited for the arm
			pick.arm.Release(p)
			j.stats.Failovers++
			continue
		}
		if pick.loaded != vol {
			if j.Fault != nil {
				if err := j.Fault("load", vol, -1); err != nil {
					j.stats.LoadFaults++
					pick.arm.Release(p)
					return nil, err
				}
			}
			// Swap: the picker works while the simple (non-disconnecting)
			// driver hogs the SCSI bus for the entire media change (§7).
			// The drive↔volume binding is recorded up front, while the arm
			// is held: a concurrent request for the same volume must queue
			// on this drive rather than conclude the volume is unloaded and
			// start a second swap of the same cartridge elsewhere.
			pick.loaded = vol
			pick.pos = 0
			iv := obs.Begin(p, obs.KindDriveSwap)
			j.picker.Acquire(p)
			if j.bus != nil {
				j.bus.Hold(p, j.prof.SwapTime)
			} else {
				p.Sleep(j.prof.SwapTime)
			}
			j.picker.Release(p)
			iv.End(j.obs, j.track, "jb.swap", "swap",
				obs.Arg{Key: "vol", Val: int64(vol)}, obs.Arg{Key: "drive", Val: int64(pick.id)})
			j.stats.Swaps++
			j.stats.SwapTime += j.prof.SwapTime
		}
		pick.lastUse = p.Now()
		return pick, nil
	}
	return nil, fmt.Errorf("%w: %s: no drive settled for volume %d", ErrDriveOffline, j.prof.Name, vol)
}

// position pays the within-volume positioning cost to reach seg.
func (j *Jukebox) position(p *sim.Proc, d *drive, seg int) {
	dist := seg - d.pos
	if dist < 0 {
		dist = -dist
	}
	var t sim.Time
	if dist > 0 {
		t = j.prof.SeekBase + sim.Time(dist)*j.prof.SeekPerSeg
	}
	t += j.prof.Rotation
	if t > 0 {
		p.Sleep(t)
	}
}

// ReadSegment reads segment seg of volume vol into buf, which must be
// SegmentBytes long: LendSegment, then a copy.
func (j *Jukebox) ReadSegment(p *sim.Proc, vol, seg int, buf []byte) error {
	if err := j.checkArgs(vol, seg, len(buf)); err != nil {
		return err
	}
	img, err := j.LendSegment(p, vol, seg)
	if err == nil && copy(buf, img) == 0 {
		clear(buf) // never written
	}
	return err
}

// LendSegment implements Footprint.
func (j *Jukebox) LendSegment(p *sim.Proc, vol, seg int) ([]byte, error) {
	if err := p.CtxErr(); err != nil {
		return nil, err // canceled/expired request: refuse before touching a drive
	}
	if err := j.checkArgs(vol, seg, j.segBytes); err != nil {
		return nil, err
	}
	if j.Fault != nil {
		if err := j.Fault("read", vol, seg); err != nil {
			j.stats.ReadFaults++
			j.obs.Instant(j.track, "jb.fault", "read",
				obs.Arg{Key: "vol", Val: int64(vol)}, obs.Arg{Key: "seg", Val: int64(seg)})
			return nil, err
		}
	}
	start := p.Now()
	// The media-transfer interval spans drive acquisition through the bus
	// transfer; a swap performed inside driveFor nests as its own stage
	// and wins the critical-path attribution for its interval. It is a
	// span only when the read succeeds.
	args := [...]obs.Arg{{Key: "vol", Val: int64(vol)}, {Key: "seg", Val: int64(seg)}}
	iv := obs.Begin(p, obs.KindMediaTransfer)
	d, err := j.driveFor(p, vol, false)
	if err != nil {
		iv.End(nil, "", "", "ReadSegment", args[:]...)
		return nil, err
	}
	j.position(p, d, seg)
	p.Sleep(xfer(j.segBytes, j.prof.MediaRead))
	d.pos = seg + 1
	img := j.vols[vol].store[seg]
	dev.Audit.Record("jukebox: lent segment", img)
	d.arm.Release(p)
	if j.bus != nil {
		j.bus.Transfer(p, j.segBytes)
	}
	iv.End(j.obs, j.track, "jb.read", "ReadSegment", args[:]...)
	j.stats.Reads++
	j.stats.BytesRead += int64(j.segBytes)
	j.stats.ReadTime += p.Now() - start
	return img, nil
}

// WriteSegment implements Footprint: AdoptSegment of a copy of buf.
func (j *Jukebox) WriteSegment(p *sim.Proc, vol, seg int, buf []byte) error {
	return j.AdoptSegment(p, vol, seg, bytes.Clone(buf))
}

// AdoptSegment implements Footprint.
func (j *Jukebox) AdoptSegment(p *sim.Proc, vol, seg int, buf []byte) error {
	if err := p.CtxErr(); err != nil {
		return err // canceled/expired request: refuse before touching a drive
	}
	if err := j.checkArgs(vol, seg, len(buf)); err != nil {
		return err
	}
	if j.Fault != nil {
		if err := j.Fault("write", vol, seg); err != nil {
			j.stats.WriteFaults++
			j.obs.Instant(j.track, "jb.fault", "write",
				obs.Arg{Key: "vol", Val: int64(vol)}, obs.Arg{Key: "seg", Val: int64(seg)})
			return err
		}
	}
	v := j.vols[vol]
	if v.full || seg >= v.actualSegs {
		v.full = true
		return ErrEndOfMedium
	}
	start := p.Now()
	args := [...]obs.Arg{{Key: "vol", Val: int64(vol)}, {Key: "seg", Val: int64(seg)}}
	iv := obs.Begin(p, obs.KindMediaTransfer)
	if j.bus != nil {
		j.bus.Transfer(p, j.segBytes)
	}
	d, err := j.driveFor(p, vol, true)
	if err != nil {
		iv.End(nil, "", "", "WriteSegment", args[:]...)
		return err
	}
	j.position(p, d, seg)
	p.Sleep(xfer(j.segBytes, j.prof.MediaWrite))
	d.pos = seg + 1
	// buf replaces the old image, which may be lent out and so never
	// changes. It lands in two halves: a cut at the first sees a torn
	// segment (new head, stale tail), an image of its own — the case the
	// per-pseg checksums must catch at recovery.
	if j.Cut.Inside(1) {
		torn, half := make([]byte, j.segBytes), j.segBytes/2
		copy(torn, buf[:half])
		if old := v.store[seg]; old != nil {
			copy(torn[half:], old[half:])
		}
		v.store[seg] = torn
	}
	j.Cut.Tick(1)
	v.store[seg] = buf
	dev.Audit.Record("jukebox: adopted segment", buf)
	j.Cut.Tick(1)
	d.arm.Release(p)
	iv.End(j.obs, j.track, "jb.write", "WriteSegment", args[:]...)
	j.stats.Writes++
	j.stats.BytesWritten += int64(j.segBytes)
	j.stats.WriteTime += p.Now() - start
	return nil
}

func xfer(n int, rate int64) sim.Time {
	if rate <= 0 {
		return 0
	}
	return sim.Time(float64(n) / float64(rate) * float64(time.Second))
}
