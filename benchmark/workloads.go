package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/lfs"
	"repro/internal/migrate"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/wl"
)

// A workload is a closed loop: the next operation is issued only after the
// previous one completes. Each defines its own op so that every end-to-end
// metric exists on every workload.
type workload struct {
	name string
	rig  func(tiny bool) rigSpec
	// setup preloads data (timed as setup_s), measure is the timed phase,
	// verify reads back outside the timed region. All run on sim procs.
	setup   func(p *sim.Proc, r *rig, st *state) error
	measure func(p *sim.Proc, r *rig, st *state) error
	verify  func(p *sim.Proc, r *rig, st *state) error
	// fsckUndercount is how many segments with under-counted live bytes
	// checkFS tolerates at paper scale (a known lfs issue, see checkFS).
	fsckUndercount int
}

// state is what one rep's phases share, plus the op ledger the end-to-end
// metrics are computed from.
type state struct {
	seed uint64
	tiny bool

	lat       []sim.Time // per-op virtual latency, completed ops only
	bytes     int64      // user bytes moved in the measured phase
	attempted int
	failed    int

	queueWaits []sim.Time          // serve: submit to execution start
	paperRows  map[string]paperRow // like-for-like rows against the paper

	// Per-workload data carried from setup to measure and verify.
	obj     *fileProbe
	files   []*benchFile
	bgFiles []*benchFile // serve: files the background writer completed
	bg      *background  // serve: the writer and migrator daemon
}

type paperRow struct{ measured, paper float64 }

// op records one completed operation; a nil error and ok content count as
// success.
func (st *state) op(lat sim.Time, err error, ok bool) {
	if st.count(err, ok) {
		st.lat = append(st.lat, lat)
	}
}

// count records an operation's outcome without a latency sample.
func (st *state) count(err error, ok bool) bool {
	st.attempted++
	if err != nil || !ok {
		st.failed++
		return false
	}
	return true
}

var workloads = []*workload{largeobj(), migrateWL(), fetch(), serve()}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pattern is the content generator for the files the benchmark writes
// itself: file id's byte at offset off is pattern[(off+id*4099) mod patLen].
// The table is doubled so any read of up to patLen bytes is one contiguous
// slice and checking is a memcmp, keeping verification out of the host-time
// numbers.
const patLen = 1<<20 - 3

var pattern = func() []byte {
	b := make([]byte, 2*patLen)
	rng := sim.NewRNG(0x48694c69676874) // fixed: content does not depend on -seed
	for i := 0; i < patLen; i++ {
		b[i] = byte(rng.Uint64())
		b[i+patLen] = b[i]
	}
	return b
}()

type benchFile struct {
	id   int
	path string
	size int64
	inum uint32
	hot  bool
}

func (f *benchFile) content(off int64, n int) []byte {
	s := (off + int64(f.id)*4099) % patLen
	return pattern[s : s+int64(n)]
}

// check reports whether b (at most patLen bytes) is f's content at off.
func (f *benchFile) check(off int64, b []byte) bool {
	return bytes.Equal(b, f.content(off, len(b)))
}

// skewedPlan is a closed-loop read schedule of n files: hotPct percent of
// the reads go to the hot files, the rest to the others, in seeded order.
// The shares are exact rather than drawn per read (each hot file is read
// equally often; the cold files are visited in a seeded permutation), so
// the seed changes which files are read and in what order but not how many
// reads miss the cache; that keeps run-to-run differences between seeds
// small enough for the regression bounds to mean something.
func skewedPlan(rng *sim.RNG, files []*benchFile, n, hotPct int) []*benchFile {
	var hot, cold []*benchFile
	for _, f := range files {
		if f.hot {
			hot = append(hot, f)
		} else {
			cold = append(cold, f)
		}
	}
	order := rng.Perm(len(cold))
	plan := make([]*benchFile, 0, n)
	for i := 0; i < n*hotPct/100; i++ {
		plan = append(plan, hot[i%len(hot)])
	}
	for i := 0; len(plan) < n; i++ {
		plan = append(plan, cold[order[i%len(cold)]])
	}
	shuffled := make([]*benchFile, n)
	for i, j := range rng.Perm(n) {
		shuffled[i] = plan[j]
	}
	return shuffled
}

// writeFile creates f on the target and fills it with its pattern.
func writeFile(p *sim.Proc, r *rig, f *benchFile) error {
	h, err := r.hl.FS.Create(p, f.path)
	if err != nil {
		return err
	}
	f.inum = h.Inum()
	const chunk = 64 * 1024
	for off := int64(0); off < f.size; off += chunk {
		n := int64(chunk)
		if f.size-off < n {
			n = f.size - off
		}
		if _, err := h.WriteAt(p, f.content(off, int(n)), off); err != nil {
			return err
		}
	}
	return nil
}

// migrateAll moves every listed file to tertiary storage and waits for the
// copy-outs.
func migrateAll(p *sim.Proc, r *rig, files []*benchFile) error {
	inums := make([]uint32, len(files))
	for i, f := range files {
		inums[i] = f.inum
	}
	if _, err := r.hl.MigrateFiles(p, inums, false); err != nil {
		return err
	}
	return r.hl.CompleteMigration(p)
}

// ---------------------------------------------------------------- largeobj

// Table 2, "HighLight on-disk" column (KB/s).
var table2OnDisk = map[string]float64{
	"sequential read": 813, "sequential write": 617,
	"random read": 152, "random write": 749,
	"read 80/20": 152, "write 80/20": 749,
}

func largeobj() *workload {
	type params struct{ frames, seq, small int }
	par := func(tiny bool) params {
		if tiny {
			return params{frames: 512, seq: 128, small: 32}
		}
		return params{frames: 12500, seq: 2500, small: 250} // 51.2 MB object, §7.1
	}
	return &workload{
		name: "largeobj",
		// Three segments after wl.CreateLargeObject at the parent commit, two
		// after the six phases on every seed tried.
		fsckUndercount: 3,
		// Why: lfs and dev do all the work on one proc (kernel self-wake path);
		// the tertiary side is idle, so it is the bypass workload for anything
		// below the block map.
		rig: func(tiny bool) rigSpec {
			if tiny {
				return rigSpec{SegBlocks: 64, Disks: []diskSpec{{dev.RZ57, 96, true}}, CacheSegs: 12,
					BufferBytes: 256 * 1024, MaxInodes: 256, Libraries: 1, Vols: 4, SegsPerVol: 16}
			}
			return rigSpec{SegBlocks: 256, Disks: []diskSpec{{dev.RZ57, 848, true}}, CacheSegs: 96,
				BufferBytes: 3200 * 1024, MaxInodes: 4096, Libraries: 1, Vols: 32, SegsPerVol: 40}
		},
		setup: func(p *sim.Proc, r *rig, st *state) error {
			h, err := wl.CreateLargeObject(p, r.fs, wl.LargeObjectSpec{Path: "/obj", Frames: par(st.tiny).frames})
			if err != nil {
				return err
			}
			st.obj = h.(*fileProbe)
			// Frames read as created until replaced; the probe remembers
			// what was written over them.
			st.obj.check = func(off int64, b []byte) bool {
				fr := int(off / wl.FrameSize)
				for j := range b {
					if b[j] != byte(fr+j) {
						return false
					}
				}
				return true
			}
			st.obj.written = map[int64]uint32{}
			return nil
		},
		measure: func(p *sim.Proc, r *rig, st *state) error {
			pr := par(st.tiny)
			st.obj.logOps = true
			phases, err := wl.RunLargeObject(p, r.fs, st.obj, wl.LargeObjectSpec{
				Path: "/obj", Frames: pr.frames, SeqFrames: pr.seq, SmallFrames: pr.small, Seed: st.seed})
			st.obj.logOps = false
			// One op per frame. Latency percentiles are taken over the frame
			// reads of the seeded phases only (everything after the two
			// sequential phases). Every other frame costs the same on every
			// seed (a 1.27 ms buffer copy, or a 46.4 ms full cluster read
			// once in sixteen sequential frames), so a percentile over all
			// six phases is a constant of the model rather than a
			// measurement. All frames count for throughput and failures.
			for i, op := range st.obj.ops {
				if !op.write && i >= 2*pr.seq {
					st.op(op.lat, nil, op.ok)
				} else {
					st.count(nil, op.ok)
				}
			}
			st.paperRows = map[string]paperRow{}
			for _, ph := range phases {
				st.bytes += ph.Bytes
				st.paperRows[ph.Name] = paperRow{measured: ph.ThroughputKBs(), paper: table2OnDisk[ph.Name]}
			}
			return err
		},
		verify: func(p *sim.Proc, r *rig, st *state) error {
			// Every frame, replaced or not, must read back as generated.
			frame := make([]byte, wl.FrameSize)
			before := st.obj.bad
			for fr := 0; fr < par(st.tiny).frames; fr++ {
				if _, err := st.obj.ReadAt(p, frame, int64(fr)*wl.FrameSize); err != nil && err != io.EOF {
					return err
				}
			}
			if st.obj.bad != before {
				return fmt.Errorf("%d frames read back wrong", st.obj.bad-before)
			}
			return nil
		},
	}
}

// ---------------------------------------------------------------- migrate

func migrateWL() *workload {
	tree := func(tiny bool, seed uint64) wl.TreeSpec {
		if tiny {
			return wl.TreeSpec{Dirs: 4, FilesPerDir: 10, FileBlocks: 12, SizeJitterPct: 25, Seed: seed, PathPrefix: "/t"}
		}
		// 200 files averaging 64 blocks: 51.2 MB, the size of §7.1's object.
		return wl.TreeSpec{Dirs: 10, FilesPerDir: 20, FileBlocks: 57, SizeJitterPct: 25, Seed: seed, PathPrefix: "/t"}
	}
	return &workload{
		name: "migrate",
		// Why: the write path to tertiary: migrate, lfs.Migratev, core staging,
		// the tertiary service and I/O procs and jukebox writes, with gathering
		// and copy-out contending for the disk arm (Table 6).
		rig: func(tiny bool) rigSpec {
			if tiny {
				return rigSpec{SegBlocks: 64, Disks: []diskSpec{{dev.RZ57, 96, true}, {dev.RZ58, 24, true}}, StageOnLast: true,
					BufferBytes: 256 * 1024, MaxInodes: 256, Libraries: 1, Vols: 4, SegsPerVol: 16}
			}
			return rigSpec{SegBlocks: 256, Disks: []diskSpec{{dev.RZ57, 848, true}, {dev.RZ58, 112, true}}, StageOnLast: true,
				BufferBytes: 3200 * 1024, MaxInodes: 4096, Libraries: 1, Vols: 32, SegsPerVol: 40}
		},
		setup: func(p *sim.Proc, r *rig, st *state) error {
			if err := r.hl.FS.Mkdir(p, "/t"); err != nil {
				return err
			}
			ts := tree(st.tiny, st.seed)
			paths, err := wl.BuildTree(p, r.hl, ts)
			if err != nil {
				return err
			}
			for i, path := range paths {
				st.files = append(st.files, &benchFile{id: i, path: path})
			}
			// Age the tree: seeded reads a virtual second apart, so access
			// times, and with them the STP ranking, depend on the seed.
			rng := sim.NewRNG(st.seed ^ 0xa9e)
			buf := make([]byte, lfs.BlockSize)
			for i := 0; i < 2*len(paths); i++ {
				p.Sleep(time.Second)
				f, err := r.hl.FS.Open(p, paths[rng.Intn(len(paths))])
				if err != nil {
					return err
				}
				if _, err := f.ReadAt(p, buf, 0); err != nil && err != io.EOF {
					return err
				}
			}
			return r.hl.FS.Sync(p)
		},
		measure: func(p *sim.Proc, r *rig, st *state) error {
			var cands []migrate.Candidate
			err := r.rec.call(p, "migrate", "select", func() (e error) {
				cands, e = migrate.NewSTP().Select(p, r.hl, math.MaxInt64)
				return
			})
			if err != nil {
				return err
			}
			for _, c := range cands {
				t0 := p.Now()
				err := r.rec.call(p, "migrate", "migratefiles", func() error {
					_, e := r.hl.MigrateFiles(p, []uint32{c.Inum}, false)
					return e
				})
				st.op(p.Now()-t0, err, true)
				if err != nil {
					return fmt.Errorf("migrating %s: %w", c.Path, err)
				}
				st.bytes += int64(c.Size)
			}
			return r.rec.call(p, "migrate", "complete", func() error { return r.hl.CompleteMigration(p) })
		},
		verify: func(p *sim.Proc, r *rig, st *state) error {
			// Every tree file must read back as wl.BuildTree wrote it.
			ts := tree(st.tiny, st.seed)
			bad := 0
			for i, f := range st.files {
				d, fi := i/ts.FilesPerDir, i%ts.FilesPerDir
				h, err := r.hl.FS.Open(p, f.path)
				if err != nil {
					return err
				}
				size, err := h.Size(p)
				if err != nil {
					return err
				}
				data := make([]byte, size)
				if _, err := h.ReadAt(p, data, 0); err != nil && err != io.EOF {
					return err
				}
				for j := range data {
					if data[j] != byte(d*31+fi*7+j) {
						bad++
						break
					}
				}
			}
			if bad > 0 {
				return fmt.Errorf("%d migrated files read back wrong", bad)
			}
			return nil
		},
	}
}

// ---------------------------------------------------------------- fetch

// Table 3, "HighLight uncached" time to first byte (seconds), by file size.
var table3Uncached = map[int64]float64{10 << 10: 3.57, 100 << 10: 3.59, 1 << 20: 3.51, 10 << 20: 3.57}

func fetch() *workload {
	type params struct {
		cycle    []int64
		ncycle   int
		big      int
		bigSize  int64
		reads    int
		hotEvery int // every hotEvery-th cycled file is hot
	}
	par := func(tiny bool) params {
		if tiny {
			return params{cycle: []int64{10 << 10, 100 << 10, 256 << 10}, ncycle: 30, big: 1, bigSize: 1 << 20, reads: 60, hotEvery: 5}
		}
		return params{cycle: []int64{10 << 10, 100 << 10, 1 << 20}, ncycle: 120, big: 4, bigSize: 10 << 20, reads: 500, hotEvery: 5}
	}
	return &workload{
		name: "fetch",
		// Why: the read path from tertiary: demand fetch, cache insert and evict,
		// volume swaps; the working set is five times the segment cache, so a
		// copy-out gain that costs fetches shows here.
		rig: func(tiny bool) rigSpec {
			if tiny {
				return rigSpec{SegBlocks: 64, Disks: []diskSpec{{dev.RZ57, 128, true}}, CacheSegs: 6,
					BufferBytes: 256 * 1024, MaxInodes: 256, Libraries: 1, Vols: 6, SegsPerVol: 12}
			}
			return rigSpec{SegBlocks: 256, Disks: []diskSpec{{dev.RZ57, 848, true}}, CacheSegs: 16,
				BufferBytes: 3200 * 1024, MaxInodes: 4096, Libraries: 1, Vols: 32, SegsPerVol: 40}
		},
		setup: func(p *sim.Proc, r *rig, st *state) error {
			pr := par(st.tiny)
			for i := 0; i < pr.ncycle+pr.big; i++ {
				f := &benchFile{id: i, path: fmt.Sprintf("/f%03d", i), size: pr.bigSize}
				if i < pr.ncycle {
					f.size = pr.cycle[i%len(pr.cycle)]
					// Hot files come in whole cycles so the hot set has
					// every size: files 0-2, 15-17, ... at paper scale.
					f.hot = (i/len(pr.cycle))%pr.hotEvery == 0
				}
				if err := writeFile(p, r, f); err != nil {
					return err
				}
				st.files = append(st.files, f)
			}
			if err := r.hl.FS.Sync(p); err != nil {
				return err
			}
			if err := migrateAll(p, r, st.files); err != nil {
				return err
			}
			return r.ejectAll(p)
		},
		measure: func(p *sim.Proc, r *rig, st *state) error {
			pr := par(st.tiny)
			plan := skewedPlan(sim.NewRNG(st.seed), st.files, pr.reads, 80)
			clean := map[int64][]float64{} // size -> first-byte seconds of one-fetch, no-swap reads
			for _, f := range plan {
				h, err := r.fs.open(p, f.path)
				if err != nil {
					return err
				}
				h.check = f.check
				c0, j0 := r.hl.Cache.Stats().Misses, r.jukes[0].Stats().Swaps
				first, _, err := wl.SequentialScan(p, h, f.size)
				st.op(first, err, h.bad == 0)
				if err != nil {
					return fmt.Errorf("reading %s: %w", f.path, err)
				}
				st.bytes += f.size
				// Like-for-like with Table 3's uncached rows: the first
				// byte waited for exactly one fetch with the volume loaded.
				// (A later segment of a large file may still swap; only
				// reads with no swap at all are kept.)
				if r.hl.Cache.Stats().Misses > c0 && r.jukes[0].Stats().Swaps == j0 && first > sim.Time(time.Second) {
					clean[f.size] = append(clean[f.size], first.Seconds())
				}
			}
			st.paperRows = map[string]paperRow{}
			for size, firsts := range clean {
				if want, ok := table3Uncached[size]; ok {
					st.paperRows[fmt.Sprintf("uncached first byte %d", size)] = paperRow{measured: quantile(firsts, 0.5), paper: want}
				}
			}
			return nil
		},
	}
}

// ---------------------------------------------------------------- serve

// background is the serve workload's competing load: a Background-class
// writer appending new files and the migrator daemon moving them out.
type background struct {
	stop       bool // tells the writer to finish
	writerDone bool
	m          *migrate.Migrator
	pol        *newFilesPolicy
}

// newFilesPolicy ranks with STP but offers the migrator daemon only the
// files the background writer has added since the last round. Ranking the
// whole tree would re-walk the block lists of the already migrated read
// set every round, demand-fetching their indirect blocks.
type newFilesPolicy struct {
	*migrate.STP
	r       *rig
	offered map[uint32]bool
	started int64 // rounds that found work; each ends with one migrate.run span
}

func (c *newFilesPolicy) Select(p *sim.Proc, hl *core.HighLight, target int64) ([]migrate.Candidate, error) {
	var out []migrate.Candidate
	err := c.r.rec.call(p, "migrate", "select", func() error {
		cands, err := c.STP.Select(p, hl, math.MaxInt64)
		for _, cand := range cands {
			if strings.HasPrefix(cand.Path, "/bg") && !c.offered[cand.Inum] {
				c.offered[cand.Inum] = true
				out = append(out, cand)
			}
		}
		return err
	})
	if err == nil && len(out) > 0 {
		c.started++
	}
	return out, err
}

// settle stops the background and waits until the writer has exited and no
// migration round is in flight, so fsck sees a quiescent system.
func (bg *background) settle(p *sim.Proc, r *rig) error {
	bg.stop = true
	bg.m.Throttle = func() bool { return true }
	for !bg.writerDone || r.obs.CatCount("migrate.run") < bg.pol.started {
		p.Sleep(time.Second)
	}
	return r.hl.CompleteMigration(p)
}

func serve() *workload {
	type params struct {
		files, hot    int
		fileSize      int64
		clients, reqs int
		bgSize        int64
		bgEvery       sim.Time // background writer period
		migEvery      sim.Time // migrator daemon poll period
	}
	par := func(tiny bool) params {
		if tiny {
			return params{files: 12, hot: 3, fileSize: 256 << 10, clients: 4, reqs: 12, bgSize: 64 << 10, bgEvery: 2 * time.Second, migEvery: 8 * time.Second}
		}
		return params{files: 60, hot: 12, fileSize: 1 << 20, clients: 8, reqs: 150, bgSize: 128 << 10, bgEvery: 5 * time.Second, migEvery: time.Minute}
	}
	const (
		readBlocks = 16
		think      = 1200 * time.Millisecond
		deadline   = 60 * time.Second
	)
	return &workload{
		name: "serve",
		// Why: svc admission, interleaved parity farm with parallel dispatch,
		// replica routing, reqtrace, and a kernel with many procs contending;
		// reads compete with a background writer and the migrator daemon.
		rig: func(tiny bool) rigSpec {
			rz := func(segs int) diskSpec { return diskSpec{dev.RZ57, segs, false} }
			if tiny {
				return rigSpec{SegBlocks: 64, Disks: []diskSpec{rz(48), rz(48), rz(48), rz(48)}, StripeUnit: 16, Parity: true,
					CacheSegs: 6, BufferBytes: 256 * 1024, MaxInodes: 512, Libraries: 2, JukePerBus: true,
					Vols: 8, SegsPerVol: 16, Replicas: 2, Streams: 2, VolStripe: 2}
			}
			return rigSpec{SegBlocks: 256, Disks: []diskSpec{rz(128), rz(128), rz(128), rz(128)}, StripeUnit: 16, Parity: true,
				CacheSegs: 20, BufferBytes: 3200 * 1024, MaxInodes: 4096, Libraries: 2, JukePerBus: true,
				Vols: 32, SegsPerVol: 40, Replicas: 2, Streams: 2, VolStripe: 2}
		},
		setup: func(p *sim.Proc, r *rig, st *state) error {
			pr := par(st.tiny)
			r.fe = svc.New(r.hl, svc.Config{Workers: 4, ReservedInteractive: 2})
			for i := 0; i < pr.files; i++ {
				f := &benchFile{id: i, path: fmt.Sprintf("/s%03d", i), size: pr.fileSize, hot: i < pr.hot}
				if err := writeFile(p, r, f); err != nil {
					return err
				}
				st.files = append(st.files, f)
			}
			if err := r.hl.FS.Sync(p); err != nil {
				return err
			}
			if err := migrateAll(p, r, st.files); err != nil {
				return err
			}
			return r.ejectAll(p)
		},
		measure: func(p *sim.Proc, r *rig, st *state) error {
			pr := par(st.tiny)
			k := p.Kernel()

			// Background: a writer appending new files through the
			// Background class, and the migrator daemon moving them out.
			// The low-water mark is set above the current level, so the
			// daemon finds itself short of clean segments at every poll.
			m := migrate.NewMigrator(r.hl)
			bg := &background{m: m, pol: &newFilesPolicy{STP: migrate.NewSTP(), r: r, offered: map[uint32]bool{}}}
			st.bg = bg
			m.Policy = bg.pol
			m.Streams = 2
			m.Interval = pr.migEvery
			m.LowWaterSegs = r.hl.FS.CleanSegs() + 1
			r.fe.AttachMigrator(m)
			k.GoDaemon("migrator", m.Daemon)
			k.GoDaemon("bg-writer", func(wp *sim.Proc) {
				defer func() { bg.writerDone = true }()
				for i := 0; ; i++ {
					wp.Sleep(pr.bgEvery)
					if bg.stop {
						return
					}
					f := &benchFile{id: 1000 + i, path: fmt.Sprintf("/bg%04d", i), size: pr.bgSize}
					err := r.fe.Submit(wp, svc.Background, 0, func(xp *sim.Proc) error {
						if err := writeFile(xp, r, f); err != nil {
							return err
						}
						return r.hl.FS.Sync(xp)
					})
					if err == nil {
						st.bgFiles = append(st.bgFiles, f)
					}
				}
			})

			plan := skewedPlan(sim.NewRNG(st.seed), st.files, pr.clients*pr.reqs, 80)
			done := 0
			allDone := k.NewCond("bench.clients")
			var firstErr error
			for ci := 0; ci < pr.clients; ci++ {
				rng := sim.NewRNG(st.seed + uint64(ci)*0x9e3779b97f4a7c15 + 1)
				k.Go(fmt.Sprintf("client-%d", ci), func(cp *sim.Proc) {
					defer func() { done++; allDone.Broadcast() }()
					buf := make([]byte, readBlocks*lfs.BlockSize)
					for i := 0; i < pr.reqs; i++ {
						// Seeded Poisson think time: -mean*ln(U).
						u := rng.Float64()
						if u <= 0 {
							u = 1e-12
						}
						cp.Sleep(sim.Time(-float64(think) * math.Log(u)))
						f := plan[i*pr.clients+ci]
						off := rng.Int63n(f.size/lfs.BlockSize-readBlocks+1) * lfs.BlockSize
						submit := cp.Now()
						var started sim.Time
						ok := false
						err := r.fe.Submit(cp, svc.Interactive, submit+deadline, func(wp *sim.Proc) error {
							started = wp.Now()
							h, err := r.fs.open(wp, f.path)
							if err != nil {
								return err
							}
							n, err := h.ReadAt(wp, buf, off)
							if err != nil && err != io.EOF {
								return err
							}
							ok = n == len(buf) && f.check(off, buf[:n])
							return nil
						})
						st.op(cp.Now()-submit, err, ok)
						if err == nil {
							st.queueWaits = append(st.queueWaits, started-submit)
							st.bytes += int64(len(buf))
						} else if firstErr == nil && !errors.Is(err, svc.ErrOverload) && !errors.Is(err, sim.ErrDeadlineExceeded) {
							firstErr = err
						}
					}
				})
			}
			for done < pr.clients {
				allDone.Wait(p)
			}
			return firstErr
		},
		verify: func(p *sim.Proc, r *rig, st *state) error {
			if err := st.bg.settle(p, r); err != nil {
				return err
			}
			// What the background wrote must have survived migration.
			buf := make([]byte, 64*1024)
			for _, f := range st.bgFiles {
				h, err := r.hl.FS.Open(p, f.path)
				if err != nil {
					return err
				}
				for off := int64(0); off < f.size; off += int64(len(buf)) {
					n, err := h.ReadAt(p, buf, off)
					if err != nil && err != io.EOF {
						return err
					}
					if !f.check(off, buf[:n]) {
						return fmt.Errorf("background file %s read back wrong at %d", f.path, off)
					}
				}
			}
			return nil
		},
	}
}
