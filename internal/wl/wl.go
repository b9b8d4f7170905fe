// Package wl provides the paper's workloads: the Stonebraker/Olson large
// object benchmark (§7.1), file-set generators for the migration policy
// experiments, and access-pattern generators (sequential, random, 80/20).
package wl

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ffs"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// FrameSize is the large-object frame size: 4096 bytes.
const FrameSize = 4096

// Handle is an open file on any of the benchmarked file systems.
type Handle interface {
	ReadAt(p *sim.Proc, b []byte, off int64) (int, error)
	WriteAt(p *sim.Proc, b []byte, off int64) (int, error)
}

// Target abstracts the three file systems under test (FFS, base LFS,
// HighLight) for the benchmark harness.
type Target interface {
	Name() string
	Create(p *sim.Proc, path string) (Handle, error)
	Open(p *sim.Proc, path string) (Handle, error)
	Sync(p *sim.Proc) error
	FlushCaches(p *sim.Proc) error
}

// LFSTarget adapts a base LFS (or the HighLight FS, which embeds one).
type LFSTarget struct {
	Label string
	FS    *lfs.FS
}

// Name implements Target.
func (t LFSTarget) Name() string { return t.Label }

// Create implements Target.
func (t LFSTarget) Create(p *sim.Proc, path string) (Handle, error) { return t.FS.Create(p, path) }

// Open implements Target.
func (t LFSTarget) Open(p *sim.Proc, path string) (Handle, error) { return t.FS.Open(p, path) }

// Sync implements Target.
func (t LFSTarget) Sync(p *sim.Proc) error { return t.FS.Sync(p) }

// FlushCaches implements Target.
func (t LFSTarget) FlushCaches(p *sim.Proc) error { return t.FS.FlushCaches(p) }

// FFSTarget adapts the FFS baseline.
type FFSTarget struct {
	Label string
	FS    *ffs.FS
}

// Name implements Target.
func (t FFSTarget) Name() string { return t.Label }

// Create implements Target.
func (t FFSTarget) Create(p *sim.Proc, path string) (Handle, error) { return t.FS.Create(p, path) }

// Open implements Target.
func (t FFSTarget) Open(p *sim.Proc, path string) (Handle, error) { return t.FS.Open(p, path) }

// Sync implements Target.
func (t FFSTarget) Sync(p *sim.Proc) error { return t.FS.Sync(p) }

// FlushCaches implements Target.
func (t FFSTarget) FlushCaches(p *sim.Proc) error { return t.FS.FlushCaches(p) }

// HLTarget adapts a HighLight instance.
func HLTarget(label string, hl *core.HighLight) Target {
	return LFSTarget{Label: label, FS: hl.FS}
}

// LargeObjectSpec parameterizes the §7.1 benchmark.
type LargeObjectSpec struct {
	Path        string
	Frames      int // 12500 in the paper (51.2 MB)
	SeqFrames   int // 2500 (10 MB)
	SmallFrames int // 250 (1 MB)
	Seed        uint64
}

// PhaseResult is one benchmark phase measurement.
type PhaseResult struct {
	Name    string
	Bytes   int64
	Elapsed sim.Time
}

// ThroughputKBs reports the phase throughput in KB/s.
func (r PhaseResult) ThroughputKBs() float64 {
	s := r.Elapsed.Seconds()
	if s == 0 {
		return 0
	}
	return float64(r.Bytes) / 1024 / s
}

func (r PhaseResult) String() string {
	return fmt.Sprintf("%-28s %8.2f s %9.0f KB/s", r.Name, r.Elapsed.Seconds(), r.ThroughputKBs())
}

// patternPeriod is the period in j of the frame patterns byte(i+j) and
// byte(i*j). A frame is one period written byte by byte and then tiled: the
// byte loop over a whole frame ran 20-50 % slower or faster with the 64-byte
// phase the linker happened to give it, and that, not the file system, was
// what moved the large-object benchmark's host clock from build to build
// (EXPERIMENTS.md, "Hit-under-miss").
const patternPeriod = 256

// tile repeats frame[:n] through the rest of frame.
func tile(frame []byte, n int) {
	for ; n < len(frame); n *= 2 {
		copy(frame[n:], frame[:n])
	}
}

// CreateLargeObject writes the initial object and syncs it.
func CreateLargeObject(p *sim.Proc, t Target, spec LargeObjectSpec) (Handle, error) {
	f, err := t.Create(p, spec.Path)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, FrameSize)
	for i := 0; i < spec.Frames; i++ {
		for j := range frame[:patternPeriod] {
			frame[j] = byte(i + j)
		}
		tile(frame, patternPeriod)
		if _, err := f.WriteAt(p, frame, int64(i)*FrameSize); err != nil {
			return nil, err
		}
	}
	if err := t.Sync(p); err != nil {
		return nil, err
	}
	return f, nil
}

// RunLargeObject runs the six phases of §7.1 against an existing object:
// sequential read and replace (SeqFrames frames), random read and replace,
// and 80/20-locality read and replace (SmallFrames frames each). The
// buffer cache is flushed before each operation, as in the paper.
func RunLargeObject(p *sim.Proc, t Target, f Handle, spec LargeObjectSpec) ([]PhaseResult, error) {
	rng := sim.NewRNG(spec.Seed)
	frame := make([]byte, FrameSize)
	var results []PhaseResult

	// "The buffer cache is flushed before each operation in the
	// benchmark": each of the six phases starts cold. Within the random
	// phases data reuse is negligible anyway (the object dwarfs the
	// 3.2 MB buffer cache); file metadata (inode, indirect blocks) stays
	// warm within a phase, matching the paper's one-disk-op-per-frame
	// random-read cost.
	phase := func(name string, frames int, next func(i int) int64, write bool) error {
		if err := t.FlushCaches(p); err != nil {
			return err
		}
		start := p.Now()
		for i := 0; i < frames; i++ {
			off := next(i) * FrameSize
			var err error
			if write {
				for j := range frame[:patternPeriod] {
					frame[j] = byte(i * j)
				}
				tile(frame, patternPeriod)
				_, err = f.WriteAt(p, frame, off)
			} else {
				_, err = f.ReadAt(p, frame, off)
				if err == io.EOF {
					err = nil
				}
			}
			if err != nil {
				return fmt.Errorf("%s frame %d: %w", name, i, err)
			}
		}
		if write {
			// Buffered writes count only once they are on disk.
			if err := t.Sync(p); err != nil {
				return err
			}
		}
		results = append(results, PhaseResult{
			Name:    name,
			Bytes:   int64(frames) * FrameSize,
			Elapsed: p.Now() - start,
		})
		return nil
	}

	seq := func(i int) int64 { return int64(i) }
	random := func(i int) int64 { return rng.Int63n(int64(spec.Frames)) }
	last := int64(0)
	eightyTwenty := func(i int) int64 {
		if rng.Intn(100) < 80 {
			last = (last + 1) % int64(spec.Frames)
		} else {
			last = rng.Int63n(int64(spec.Frames))
		}
		return last
	}

	if err := phase("sequential read", spec.SeqFrames, seq, false); err != nil {
		return results, err
	}
	if err := phase("sequential write", spec.SeqFrames, seq, true); err != nil {
		return results, err
	}
	if err := phase("random read", spec.SmallFrames, random, false); err != nil {
		return results, err
	}
	if err := phase("random write", spec.SmallFrames, random, true); err != nil {
		return results, err
	}
	last = 0
	if err := phase("read 80/20", spec.SmallFrames, eightyTwenty, false); err != nil {
		return results, err
	}
	last = 0
	if err := phase("write 80/20", spec.SmallFrames, eightyTwenty, true); err != nil {
		return results, err
	}
	return results, nil
}

// TreeSpec describes a generated file tree for policy experiments.
type TreeSpec struct {
	Dirs          int
	FilesPerDir   int
	FileBlocks    int // blocks per file
	Seed          uint64
	PathPrefix    string
	SizeJitterPct int
}

// BuildTree populates a HighLight FS with a directory tree and returns the
// created paths.
func BuildTree(p *sim.Proc, hl *core.HighLight, spec TreeSpec) ([]string, error) {
	rng := sim.NewRNG(spec.Seed)
	var paths []string
	for d := 0; d < spec.Dirs; d++ {
		dir := fmt.Sprintf("%s/unit%03d", spec.PathPrefix, d)
		if err := hl.FS.Mkdir(p, dir); err != nil {
			return nil, err
		}
		for fi := 0; fi < spec.FilesPerDir; fi++ {
			path := fmt.Sprintf("%s/file%03d", dir, fi)
			f, err := hl.FS.Create(p, path)
			if err != nil {
				return nil, err
			}
			blocks := spec.FileBlocks
			if spec.SizeJitterPct > 0 {
				blocks += rng.Intn(spec.FileBlocks*spec.SizeJitterPct/100 + 1)
			}
			data := make([]byte, blocks*lfs.BlockSize)
			for i := range data {
				data[i] = byte(d*31 + fi*7 + i)
			}
			if _, err := f.WriteAt(p, data, 0); err != nil {
				return nil, err
			}
			paths = append(paths, path)
		}
	}
	return paths, hl.FS.Sync(p)
}

// SequentialScan reads a whole file with an 8 KB buffer (the stdio pattern
// of §7.2) and returns time-to-first-byte and total elapsed time.
func SequentialScan(p *sim.Proc, f Handle, size int64) (firstByte, total sim.Time, err error) {
	buf := make([]byte, 8192)
	start := p.Now()
	var got int64
	for got < size {
		want := int64(len(buf))
		if size-got < want {
			want = size - got
		}
		n, rerr := f.ReadAt(p, buf[:want], got)
		if got == 0 && n > 0 {
			firstByte = p.Now() - start
		}
		got += int64(n)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return firstByte, p.Now() - start, rerr
		}
	}
	return firstByte, p.Now() - start, nil
}
