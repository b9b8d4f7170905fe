package stripe

import (
	"runtime"
	"testing"

	"repro/internal/dev"
	"repro/internal/sim"
)

// allocBytesPerOp reports the heap bytes one op allocates in steady state:
// op runs once as a warm-up (so the farm's free list is stocked), then in
// several windows with runtime.MemStats.TotalAlloc read around each; the
// cheapest window counts, which leaves out what the runtime and the kernel
// allocate now and then on their own account (goroutine descriptors, the
// doubling of the kernel's proc table).
func allocBytesPerOp(op func()) uint64 {
	const windows, runs = 5, 20
	op()
	best := ^uint64(0)
	var before, after runtime.MemStats
	for w := 0; w < windows; w++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got < best {
			best = got
		}
	}
	return best
}

// TestInterleaveSteadyStateAllocations gates the farm's data path: after a
// warm-up op, a request may allocate bookkeeping (op lists, closures, the
// fan-out procs) but no transfer buffer — less than one block per op,
// where a single row image or parity unit allocated per call is 16 KB or
// more. The last two rows are the path every block I/O of an unstriped
// instance takes, a request inside the one component of a concatenated
// farm: its split, its per-spindle lists and errors stay on the caller's
// stack and its one group runs with no task built, so it allocates nothing
// (TestOneSpindleRequestAllocatesNothing counts allocations as well).
func TestInterleaveSteadyStateAllocations(t *testing.T) {
	const unit = 4 // blocks per stripe unit; a row holds 3 data units = 12 blocks
	for _, tc := range []struct {
		name   string
		concat bool   // one 256-block component instead of the 4-spindle parity farm
		failed int    // spindle marked failed before the measured ops, -1 for none
		limit  uint64 // bytes per op the row must stay under
		op     func(p *sim.Proc, il *Farm, buf []byte) error
	}{
		{"partial-row write", false, -1, dev.BlockSize, func(p *sim.Proc, il *Farm, buf []byte) error {
			return il.WriteBlocks(p, 5, buf[:2*dev.BlockSize]) // inside unit 1 of row 0
		}},
		{"full-stripe write", false, -1, dev.BlockSize, func(p *sim.Proc, il *Farm, buf []byte) error {
			return il.WriteBlocks(p, 12, buf[:12*dev.BlockSize]) // row 1 whole
		}},
		{"coalesced multi-unit read", false, -1, dev.BlockSize, func(p *sim.Proc, il *Farm, buf []byte) error {
			return il.ReadBlocks(p, 0, buf[:24*dev.BlockSize]) // 2 rows: spindles 2 and 3 serve two adjacent units each
		}},
		{"degraded read", false, 1, dev.BlockSize, func(p *sim.Proc, il *Farm, buf []byte) error {
			return il.ReadBlocks(p, 0, buf[:12*dev.BlockSize]) // row 0, one unit of it on the failed spindle
		}},
		{"concat one-component write", true, -1, 1, func(p *sim.Proc, c *Farm, buf []byte) error {
			return c.WriteBlocks(p, 8, buf[:16*dev.BlockSize])
		}},
		{"concat one-component read", true, -1, 1, func(p *sim.Proc, c *Farm, buf []byte) error {
			return c.ReadBlocks(p, 8, buf[:16*dev.BlockSize])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			il, _ := newInterleave(k, unit, true, 4, 256)
			if tc.concat {
				il, _ = newConcat(k, 256)
			}
			buf := make([]byte, 96*dev.BlockSize)
			for i := range buf {
				buf[i] = byte(i * 7)
			}
			k.RunProc(func(p *sim.Proc) {
				if err := il.WriteBlocks(p, 0, buf); err != nil {
					t.Fatal(err)
				}
				if tc.failed >= 0 {
					il.setFailed(tc.failed, true)
				}
				got := allocBytesPerOp(func() {
					if err := tc.op(p, il, buf); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%d bytes allocated per op", got)
				if got >= tc.limit {
					t.Errorf("%s allocates %d bytes per op in steady state, want under %d", tc.name, got, tc.limit)
				}
			})
		})
	}
}

// TestOneSpindleRequestAllocatesNothing: a read and a write that reach one
// spindle of a concatenated farm, and a read of a striped farm inside one
// stripe unit, make no allocation at all.
func TestOneSpindleRequestAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	c, _ := newConcat(k, 256, 256)
	il, _ := newInterleave(k, 4, false, 2, 256)
	buf := make([]byte, 16*dev.BlockSize)
	k.RunProc(func(p *sim.Proc) {
		for name, op := range map[string]func() error{
			"concat read":       func() error { return c.ReadBlocks(p, 300, buf) },
			"concat write":      func() error { return c.WriteBlocks(p, 8, buf) },
			"striped unit read": func() error { return il.ReadBlocks(p, 5, buf[:2*dev.BlockSize]) },
		} {
			if err := op(); err != nil { // first touch of the media
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(20, func() {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s: %v allocations per op, want 0", name, n)
			}
		}
	})
}

// Per-layer micro-benchmarks (make bench-layers): host cost and bytes
// allocated per op of the striped farm alone, over four RZ57 spindles with
// rotating parity and a 64 KB stripe unit.

func benchFarm() (*sim.Kernel, *Farm, []byte) {
	k := sim.NewKernel()
	il, _ := newInterleave(k, 16, true, 4, 4096)
	return k, il, make([]byte, 1<<20)
}

// BenchmarkInterleaveWriteParity alternates the two parity write shapes: a
// 1 MB write (full rows plus a partial tail row) and a 16 KB read-modify
// small write.
func BenchmarkInterleaveWriteParity(b *testing.B) {
	k, il, buf := benchFarm()
	poisonFreed = false // poison_test.go: filling every freed parity unit and row image would swamp the parity measured
	defer func() { poisonFreed = true }()
	b.ReportAllocs()
	k.RunProc(func(p *sim.Proc) {
		for i := -1; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer() // round -1 touched the media and stocked the free list
			}
			if err := il.WriteBlocks(p, 0, buf); err != nil {
				b.Fatal(err)
			}
			if err := il.WriteBlocks(p, 300, buf[:4*dev.BlockSize]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInterleaveAdoptLine1MB is a demand fetch's cache-line write on
// the parity farm: a lent 1 MB segment image adopted at segments 0, 1 and 2
// in turn (256-block segments; 1 and 2 start and end mid-row).
func BenchmarkInterleaveAdoptLine1MB(b *testing.B) {
	k, il, img := benchFarm()
	for i := range img {
		img[i] = byte(i * 7)
	}
	poisonFreed = false // poison_test.go: filling every freed parity unit and row image would swamp the copies measured
	defer func() { poisonFreed = true }()
	b.ReportAllocs()
	b.SetBytes(int64(len(img)))
	k.RunProc(func(p *sim.Proc) {
		for i := -3; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer() // rounds -3..-1 touched the media and stocked the free list
			}
			if err := il.AdoptBlocks(p, int64((i+3)%3)*256, img); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkInterleaveRead1MB(b *testing.B) {
	k, il, buf := benchFarm()
	b.ReportAllocs()
	k.RunProc(func(p *sim.Proc) {
		if err := il.WriteBlocks(p, 0, buf); err != nil {
			b.Fatal(err)
		}
		if err := il.ReadBlocks(p, 0, buf); err != nil { // stocks the free list
			b.Fatal(err)
		}
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := il.ReadBlocks(p, 0, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkXorInto64K is the parity kernel alone, over one 64 KB stripe
// unit — what writeParity pays per lane of every row.
func BenchmarkXorInto64K(b *testing.B) {
	dst, src := make([]byte, 64<<10), make([]byte, 64<<10)
	for i := range src {
		src[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		xorInto(dst, src)
	}
}
