package main

import (
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/wl"
)

// Tracing from outside the program: wall-clock spans around the
// benchmark's own calls into each layer, and timing decorators on the two
// device seams core.Config exposes (Disks and Jukeboxes). Spans inside the
// program are a later issue.

// span is one wall-clock interval on one sim proc. Parent is the index of
// the enclosing span on the same proc (-1 at the top); the proc name is the
// identifier spans of one activity share.
type span struct {
	Name    string `json:"name"`
	Proc    string `json:"proc"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// maxSpans bounds the in-memory span list of one rep; the per-name totals
// keep counting past it.
const maxSpans = 400000

// layerTime is one layer's accumulated call count and time.
type layerTime struct {
	Calls  int64
	Sim    sim.Time      // virtual time inside the calls (inclusive)
	HostNs time.Duration // wall time inside the calls (inclusive of same-proc callees)
	SelfNs time.Duration // HostNs minus same-proc child spans
}

// recorder collects spans and per-layer totals for one rep. A nil recorder
// is valid and records nothing; an unarmed one counts calls and virtual
// time only (two clock reads the kernel already pays for), so those are
// available on untraced reps too.
type recorder struct {
	wall    bool // record wall-clock spans (traced reps only)
	armed   bool // inside the measured phase
	epoch   time.Time
	spans   []span
	dropped int64
	open    map[*sim.Proc][]openSpan
	layers  map[string]*layerTime
}

type openSpan struct {
	idx     int // index in spans, -1 when dropped
	childNs time.Duration
}

func newRecorder(wall bool) *recorder {
	return &recorder{
		wall:   wall,
		open:   make(map[*sim.Proc][]openSpan),
		layers: make(map[string]*layerTime),
	}
}

func (r *recorder) arm() {
	r.armed = true
	r.epoch = time.Now()
}

func (r *recorder) disarm() { r.armed = false }

func (r *recorder) layer(name string) *layerTime {
	lt := r.layers[name]
	if lt == nil {
		lt = &layerTime{}
		r.layers[name] = lt
	}
	return lt
}

// call times fn as one span of layer/op on proc p.
func (r *recorder) call(p *sim.Proc, layer, op string, fn func() error) error {
	if r == nil || !r.armed {
		return fn()
	}
	lt := r.layer(layer)
	lt.Calls++
	simStart := p.Now()
	if !r.wall {
		err := fn()
		lt.Sim += p.Now() - simStart
		return err
	}
	idx := -1
	if len(r.spans) < maxSpans {
		parent := -1
		if st := r.open[p]; len(st) > 0 {
			parent = st[len(st)-1].idx
		}
		idx = len(r.spans)
		r.spans = append(r.spans, span{Name: layer + "." + op, Proc: p.Name(), Parent: parent})
	} else {
		r.dropped++
	}
	r.open[p] = append(r.open[p], openSpan{idx: idx})
	start := time.Now()
	err := fn()
	end := time.Now()
	d := end.Sub(start)
	st := r.open[p]
	me := st[len(st)-1]
	st = st[:len(st)-1]
	if len(st) > 0 {
		st[len(st)-1].childNs += d
		r.open[p] = st
	} else {
		delete(r.open, p)
	}
	if idx >= 0 {
		r.spans[idx].StartNs = start.Sub(r.epoch).Nanoseconds()
		r.spans[idx].EndNs = end.Sub(r.epoch).Nanoseconds()
	}
	lt.Sim += p.Now() - simStart
	lt.HostNs += d
	lt.SelfNs += d - me.childNs
	return err
}

// traceFile is what -trace writes per workload.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Dropped  int64                `json:"dropped_spans"`
	Layers   map[string]layerJSON `json:"layers"`
	Spans    []span               `json:"spans"`
}

type layerJSON struct {
	Calls  int64   `json:"calls"`
	SimMs  float64 `json:"sim_ms"`
	HostMs float64 `json:"host_ms"`
	SelfMs float64 `json:"self_ms"`
}

func (r *recorder) write(path, workload string, seed uint64) error {
	tf := traceFile{Workload: workload, Seed: seed, Dropped: r.dropped, Layers: map[string]layerJSON{}, Spans: r.spans}
	for n, lt := range r.layers {
		tf.Layers[n] = layerJSON{Calls: lt.Calls, SimMs: ms(lt.Sim), HostMs: ms(lt.HostNs), SelfMs: ms(lt.SelfNs)}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// diskProbe times one farm component. It embeds the concrete disk so every
// capability the layers above probe for by type assertion (dev.Flusher in
// stripe and lfs, Stats, Profile) is promoted, not dropped; only the three
// timed calls are overridden.
type diskProbe struct {
	*dev.Disk
	rec *recorder
}

func (d diskProbe) ReadBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return d.rec.call(p, "dev", "read", func() error { return d.Disk.ReadBlocks(p, blk, buf) })
}

func (d diskProbe) WriteBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return d.rec.call(p, "dev", "write", func() error { return d.Disk.WriteBlocks(p, blk, buf) })
}

func (d diskProbe) Flush(p *sim.Proc) error {
	return d.rec.call(p, "dev", "flush", func() error { return d.Disk.Flush(p) })
}

// jukeProbe times one changer. Embedding the concrete jukebox promotes
// VolumeLoaded, IdleHealthyDrives, Stats, Profile and EraseVolume, which
// jukebox.Library and the tertiary fetch router probe for; dropping one
// would silently change fetch routing.
type jukeProbe struct {
	*jukebox.Jukebox
	rec *recorder
}

func (j jukeProbe) ReadSegment(p *sim.Proc, vol, seg int, buf []byte) error {
	return j.rec.call(p, "jukebox", "read", func() error { return j.Jukebox.ReadSegment(p, vol, seg, buf) })
}

func (j jukeProbe) WriteSegment(p *sim.Proc, vol, seg int, buf []byte) error {
	return j.rec.call(p, "jukebox", "write", func() error { return j.Jukebox.WriteSegment(p, vol, seg, buf) })
}

// The seams must keep every probed capability.
var (
	_ dev.Flusher = diskProbe{}
	_ interface {
		VolumeLoaded(int) bool
		IdleHealthyDrives() int
		Stats() jukebox.Stats
		Profile() jukebox.MediaProfile
		EraseVolume(int)
	} = jukeProbe{}
)

// fsProbe is the benchmark's view of the file system: a wl.Target whose
// calls are timed as the lfs layer and whose reads are checked against the
// generator's pattern.
type fsProbe struct {
	fs  *lfs.FS
	rec *recorder
}

var _ wl.Target = fsProbe{}

func (t fsProbe) Name() string { return "highlight" }

func (t fsProbe) Create(p *sim.Proc, path string) (wl.Handle, error) {
	var f *lfs.File
	err := t.rec.call(p, "lfs", "create", func() (e error) { f, e = t.fs.Create(p, path); return })
	if err != nil {
		return nil, err
	}
	return &fileProbe{f: f, rec: t.rec}, nil
}

func (t fsProbe) Open(p *sim.Proc, path string) (wl.Handle, error) {
	h, err := t.open(p, path)
	if err != nil {
		return nil, err // not a non-nil Handle holding a nil *fileProbe
	}
	return h, nil
}

func (t fsProbe) open(p *sim.Proc, path string) (*fileProbe, error) {
	var f *lfs.File
	err := t.rec.call(p, "lfs", "open", func() (e error) { f, e = t.fs.Open(p, path); return })
	if err != nil {
		return nil, err
	}
	return &fileProbe{f: f, rec: t.rec}, nil
}

func (t fsProbe) Sync(p *sim.Proc) error {
	return t.rec.call(p, "lfs", "sync", func() error { return t.fs.Sync(p) })
}

func (t fsProbe) FlushCaches(p *sim.Proc) error {
	return t.rec.call(p, "lfs", "flushcaches", func() error { return t.fs.FlushCaches(p) })
}

// fileProbe is an open file. Every read is checked: against what was last
// written through this handle at the same offset when written is set (a
// checksum per write, so replaced data is remembered without a shadow
// copy), else by check, when set, which knows the content the file was
// created with. bad counts the reads that returned wrong content. With
// logOps set every call is also logged with its virtual latency.
type fileProbe struct {
	f       *lfs.File
	rec     *recorder
	check   func(off int64, b []byte) bool
	written map[int64]uint32
	bad     int
	logOps  bool
	ops     []fileOp
}

// fileOp is one logged ReadAt or WriteAt: ok means no error, a full
// transfer and, for a read, the right content.
type fileOp struct {
	write bool
	lat   sim.Time
	ok    bool
}

func (h *fileProbe) ReadAt(p *sim.Proc, b []byte, off int64) (n int, err error) {
	t0 := p.Now()
	err = h.rec.call(p, "lfs", "read", func() (e error) { n, e = h.f.ReadAt(p, b, off); return })
	lat := p.Now() - t0
	good := true
	if sum, ok := h.written[off]; ok {
		good = crc32.ChecksumIEEE(b[:n]) == sum
	} else if h.check != nil && n > 0 {
		good = h.check(off, b[:n])
	}
	if !good {
		h.bad++
	}
	if h.logOps {
		h.ops = append(h.ops, fileOp{lat: lat, ok: good && n == len(b) && (err == nil || err == io.EOF)})
	}
	return n, err
}

func (h *fileProbe) WriteAt(p *sim.Proc, b []byte, off int64) (n int, err error) {
	t0 := p.Now()
	err = h.rec.call(p, "lfs", "write", func() (e error) { n, e = h.f.WriteAt(p, b, off); return })
	if h.written != nil && err == nil {
		h.written[off] = crc32.ChecksumIEEE(b[:n])
	}
	if h.logOps {
		h.ops = append(h.ops, fileOp{write: true, lat: p.Now() - t0, ok: err == nil && n == len(b)})
	}
	return n, err
}
