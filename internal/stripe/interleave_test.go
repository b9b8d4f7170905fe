package stripe

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dev"
	"repro/internal/sim"
)

func newInterleave(k *sim.Kernel, unit int, parity bool, n int, size int64) (*Farm, []*dev.Disk) {
	var devs []dev.BlockDev
	var disks []*dev.Disk
	for i := 0; i < n; i++ {
		d := dev.NewDisk(k, dev.RZ57, size, nil)
		devs = append(devs, d)
		disks = append(disks, d)
	}
	return must(NewInterleave(unit, parity, devs...)), disks
}

// TestInterleaveMatchesConcatReference is the stripe-geometry property
// test: across stripe units, component counts, and parity, a random
// workload of boundary-spanning writes and reads through a striped farm
// must be byte-equivalent to the same workload through a plain concatenated
// one of equal capacity — striping may only change placement, never contents.
func TestInterleaveMatchesConcatReference(t *testing.T) {
	for _, tc := range []struct {
		unit, n int
		parity  bool
	}{
		{1, 2, false}, {3, 2, false}, {8, 2, false},
		{2, 3, true}, {1, 3, true}, {5, 4, true},
		{4, 4, false}, {2, 8, false}, {3, 8, true},
	} {
		t.Run(fmt.Sprintf("u%d_n%d_parity%v", tc.unit, tc.n, tc.parity), func(t *testing.T) {
			k := sim.NewKernel()
			const perDisk = 64
			il, _ := newInterleave(k, tc.unit, tc.parity, tc.n, perDisk)
			total := il.NumBlocks()
			ref := must(New(dev.NewDisk(k, dev.RZ57, total, nil)))
			if want := (perDisk / int64(tc.unit)) * il.dataDisks() * int64(tc.unit); total != want {
				t.Fatalf("NumBlocks = %d, want %d", total, want)
			}
			rng := sim.NewRNG(uint64(tc.unit*100 + tc.n))
			k.RunProc(func(p *sim.Proc) {
				for op := 0; op < 60; op++ {
					blk := int64(rng.Intn(int(total)))
					max := total - blk
					if max > 3*int64(tc.unit)*int64(tc.n) {
						max = 3 * int64(tc.unit) * int64(tc.n) // span several rows
					}
					nb := int64(rng.Intn(int(max))) + 1
					buf := make([]byte, nb*dev.BlockSize)
					if rng.Intn(3) > 0 {
						for i := range buf {
							buf[i] = byte(rng.Intn(256))
						}
						if err := il.WriteBlocks(p, blk, buf); err != nil {
							t.Fatalf("interleave write [%d,%d): %v", blk, blk+nb, err)
						}
						if err := ref.WriteBlocks(p, blk, bytes.Clone(buf)); err != nil {
							t.Fatalf("reference write: %v", err)
						}
					} else {
						got := make([]byte, len(buf))
						want := make([]byte, len(buf))
						if err := il.ReadBlocks(p, blk, got); err != nil {
							t.Fatalf("interleave read [%d,%d): %v", blk, blk+nb, err)
						}
						if err := ref.ReadBlocks(p, blk, want); err != nil {
							t.Fatalf("reference read: %v", err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("read [%d,%d) differs from reference", blk, blk+nb)
						}
					}
				}
			})
		})
	}
}

// TestInterleaveDegradedRead exercises the parity path: with one spindle
// failed, every read must still return the data, reconstructed by XOR of
// the survivors; writes must keep parity consistent so repairing another
// spindle later still reads clean.
func TestInterleaveDegradedRead(t *testing.T) {
	k := sim.NewKernel()
	const unit, n, perDisk = 2, 4, 32
	il, _ := newInterleave(k, unit, true, n, perDisk)
	total := il.NumBlocks()
	k.RunProc(func(p *sim.Proc) {
		w := make([]byte, total*dev.BlockSize)
		for i := range w {
			w[i] = byte(i * 7)
		}
		if err := il.WriteBlocks(p, 0, w); err != nil {
			t.Fatal(err)
		}
		for fail := 0; fail < n; fail++ {
			il.setFailed(fail, true)
			r := make([]byte, total*dev.BlockSize)
			if err := il.ReadBlocks(p, 0, r); err != nil {
				t.Fatalf("degraded read with spindle %d failed: %v", fail, err)
			}
			if !bytes.Equal(w, r) {
				t.Fatalf("degraded read with spindle %d down returned wrong data", fail)
			}
			// Partial reads too (they take the reconstruct path only when
			// they touch the failed lane).
			r2 := make([]byte, 3*dev.BlockSize)
			if err := il.ReadBlocks(p, 5, r2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w[5*dev.BlockSize:8*dev.BlockSize], r2) {
				t.Fatalf("degraded partial read wrong with spindle %d down", fail)
			}
			il.setFailed(fail, false)
		}

		// Writes in degraded mode maintain parity: new data written while
		// spindle 1 is down must be readable after it comes back (its lane
		// is stale, so reads of that lane must come from reconstruction —
		// fail it again to check parity really covers the write).
		il.setFailed(1, true)
		w2 := make([]byte, 5*dev.BlockSize)
		for i := range w2 {
			w2[i] = byte(200 - i)
		}
		if err := il.WriteBlocks(p, 7, w2); err != nil {
			t.Fatalf("degraded write: %v", err)
		}
		r := make([]byte, 5*dev.BlockSize)
		if err := il.ReadBlocks(p, 7, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w2, r) {
			t.Fatal("degraded write not readable while spindle down")
		}
	})
}

// TestInterleaveFailureModes pins the error behavior: without parity a
// failed component is fatal for requests touching it; with parity a
// second failure is fatal.
func TestInterleaveFailureModes(t *testing.T) {
	k := sim.NewKernel()
	plain, _ := newInterleave(k, 2, false, 2, 32)
	par, _ := newInterleave(k, 2, true, 3, 32)
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, 8*dev.BlockSize)
		plain.setFailed(1, true)
		if err := plain.ReadBlocks(p, 0, buf); err == nil {
			t.Error("no-parity read through failed spindle succeeded")
		}
		if err := plain.WriteBlocks(p, 0, buf); err == nil {
			t.Error("no-parity write through failed spindle succeeded")
		}

		if err := par.WriteBlocks(p, 0, buf); err != nil {
			t.Fatal(err)
		}
		par.setFailed(0, true)
		par.setFailed(1, true)
		if err := par.ReadBlocks(p, 0, buf); err == nil {
			t.Error("double-failure read succeeded")
		}
		if err := par.WriteBlocks(p, 0, buf); err == nil {
			t.Error("double-failure write succeeded")
		}
	})
}

// TestParityFullStripeWriteAvoidsReads checks the full-stripe fast path: a
// row-aligned, row-covering write computes parity from the new data alone
// and must not read any spindle.
func TestParityFullStripeWriteAvoidsReads(t *testing.T) {
	k := sim.NewKernel()
	const unit, n = 4, 5
	il, disks := newInterleave(k, unit, true, n, 64)
	rowBlocks := int64(unit * (n - 1))
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, 2*rowBlocks*dev.BlockSize)
		if err := il.WriteBlocks(p, rowBlocks, buf); err != nil {
			t.Fatal(err)
		}
	})
	for i, d := range disks {
		if r := d.Stats().Reads; r != 0 {
			t.Fatalf("full-stripe write issued %d reads on spindle %d", r, i)
		}
	}
	// A sub-row write is the read-modify case and must read.
	k2 := sim.NewKernel()
	il2, disks2 := newInterleave(k2, unit, true, n, 64)
	k2.RunProc(func(p *sim.Proc) {
		if err := il2.WriteBlocks(p, 1, make([]byte, dev.BlockSize)); err != nil {
			t.Fatal(err)
		}
	})
	reads := int64(0)
	for _, d := range disks2 {
		reads += d.Stats().Reads
	}
	if reads == 0 {
		t.Fatal("small write performed no read-modify reads")
	}
}

// TestInterleaveArmsOverlap is the point of striping: one large request
// over N spindles finishes faster than on one spindle of the same total
// capacity, because the per-unit transfers overlap in virtual time.
func TestInterleaveArmsOverlap(t *testing.T) {
	elapsed := func(n int) sim.Time {
		k := sim.NewKernel()
		var farm *Farm
		if n == 1 {
			farm = must(New(dev.NewDisk(k, dev.RZ57, 1024, nil)))
		} else {
			farm, _ = newInterleave(k, 8, false, n, 1024/int64(n))
		}
		k.RunProc(func(p *sim.Proc) {
			buf := make([]byte, 512*dev.BlockSize)
			if err := farm.ReadBlocks(p, 0, buf); err != nil {
				t.Error(err)
			}
		})
		return k.Now()
	}
	one, four := elapsed(1), elapsed(4)
	if four*2 >= one {
		t.Fatalf("4-spindle stripe read (%v) not at least 2x faster than one spindle (%v)", four, one)
	}
}

// TestParallelDispatchDeterminism double-runs an identical mixed workload
// (several procs hammering an interleaved farm) and requires identical
// final virtual time and identical per-spindle transfer counts — the
// fanout join must not depend on host scheduling.
func TestParallelDispatchDeterminism(t *testing.T) {
	run := func() (sim.Time, string) {
		k := sim.NewKernel()
		il, disks := newInterleave(k, 2, true, 4, 128)
		total := il.NumBlocks()
		for g := 0; g < 3; g++ {
			g := g
			k.Go(fmt.Sprintf("load-%d", g), func(p *sim.Proc) {
				rng := sim.NewRNG(uint64(g) + 1)
				for i := 0; i < 30; i++ {
					blk := int64(rng.Intn(int(total) - 12))
					buf := make([]byte, (int64(rng.Intn(12))+1)*dev.BlockSize)
					if rng.Intn(2) == 0 {
						if err := il.WriteBlocks(p, blk, buf); err != nil {
							t.Error(err)
						}
					} else if err := il.ReadBlocks(p, blk, buf); err != nil {
						t.Error(err)
					}
				}
			})
		}
		k.Run()
		digest := ""
		for i, d := range disks {
			st := d.Stats()
			digest += fmt.Sprintf("disk%d r%d w%d br%d bw%d;", i, st.Reads, st.Writes, st.BytesRead, st.BytesWritten)
		}
		return k.Now(), digest
	}
	t1, d1 := run()
	t2, d2 := run()
	if t1 != t2 {
		t.Fatalf("double run diverged in virtual time: %v vs %v", t1, t2)
	}
	if d1 != d2 {
		t.Fatalf("double run diverged in device stats:\n%s\n%s", d1, d2)
	}
}

// linearLocate is the historical reverse linear scan kept as the
// benchmark reference for the sort.Search replacement.
func (c *Farm) linearLocate(blk int64) (int, int64) {
	if blk < 0 || blk >= c.total {
		return -1, 0
	}
	for i := len(c.starts) - 1; i >= 0; i-- {
		if blk >= c.starts[i] {
			return i, blk - c.starts[i]
		}
	}
	return -1, 0
}

func TestLocateMatchesLinearScan(t *testing.T) {
	k := sim.NewKernel()
	c, _ := newConcat(k, 7, 13, 1, 64, 32, 5, 100, 9)
	for blk := int64(-1); blk <= c.NumBlocks(); blk++ {
		gi, go_, run := c.locate(blk)
		wi, wo := c.linearLocate(blk)
		if gi != wi || go_ != wo {
			t.Fatalf("locate(%d) = (%d,%d), linear scan says (%d,%d)", blk, gi, go_, wi, wo)
		}
		if wi >= 0 && run != c.devs[wi].NumBlocks()-wo {
			t.Fatalf("locate(%d): run of %d blocks, component %d has %d left", blk, run, wi, c.devs[wi].NumBlocks()-wo)
		}
	}
}

// BenchmarkConcatLocate shows the binary-search win at farm sizes of 8+
// components (locate sits on every block I/O of the file system).
func BenchmarkConcatLocate(b *testing.B) {
	for _, n := range []int{2, 8, 16} {
		k := sim.NewKernel()
		sizes := make([]int64, n)
		for i := range sizes {
			sizes[i] = 1024
		}
		c, _ := newConcat(k, sizes...)
		total := c.NumBlocks()
		rng := sim.NewRNG(3)
		blks := make([]int64, 1024)
		for i := range blks {
			blks[i] = int64(rng.Intn(int(total)))
		}
		b.Run(fmt.Sprintf("binary/%d-comp", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.locate(blks[i%len(blks)])
			}
		})
		b.Run(fmt.Sprintf("linear/%d-comp", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.linearLocate(blks[i%len(blks)])
			}
		})
	}
}

// TestXorIntoMatchesByteLoop is the property the parity paths rest on: the
// word-wide kernel computes exactly what the byte loop it replaced did, at
// every length from empty to past a block and on sub-slices starting and
// ending off any word or vector boundary.
func TestXorIntoMatchesByteLoop(t *testing.T) {
	rng := sim.NewRNG(1993)
	const max = 4099
	a, b := make([]byte, max+16), make([]byte, max+16)
	for i := range a {
		a[i], b[i] = byte(rng.Intn(256)), byte(rng.Intn(256))
	}
	check := func(dstOff, srcOff, n int) {
		t.Helper()
		dst := bytes.Clone(a[dstOff : dstOff+n])
		src := b[srcOff : srcOff+n]
		want := make([]byte, n)
		for i := range want {
			want[i] = dst[i] ^ src[i]
		}
		srcBefore := bytes.Clone(src)
		xorInto(dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("xorInto differs from the byte loop at length %d, dst offset %d, src offset %d", n, dstOff, srcOff)
		}
		if !bytes.Equal(src, srcBefore) {
			t.Fatalf("xorInto modified its source at length %d", n)
		}
	}
	for n := 0; n <= max; n++ {
		check(0, 0, n)
		check(rng.Intn(16), rng.Intn(16), n)
	}
}

// TestParityRoundTripOddGeometry writes through the parity farm, fails
// each spindle in turn and reads everything back degraded, on a 3- and a
// 5-spindle farm whose stripe units (12, 20 and 28 KB) are not powers of
// two — so parity units, row images and reconstruction scratch are all
// sub-slices of a larger size class, and every XOR runs over an odd length.
func TestParityRoundTripOddGeometry(t *testing.T) {
	for _, tc := range []struct{ n, unit int }{{3, 3}, {3, 7}, {5, 5}, {5, 7}} {
		t.Run(fmt.Sprintf("n%d_u%d", tc.n, tc.unit), func(t *testing.T) {
			k := sim.NewKernel()
			il, _ := newInterleave(k, tc.unit, true, tc.n, int64(6*tc.unit))
			total := il.NumBlocks()
			rng := sim.NewRNG(uint64(tc.n*100 + tc.unit))
			want := make([]byte, total*dev.BlockSize)
			for i := range want {
				want[i] = byte(rng.Intn(256))
			}
			k.RunProc(func(p *sim.Proc) {
				if err := il.WriteBlocks(p, 0, want); err != nil { // full-stripe writes
					t.Fatal(err)
				}
				write := func(blk, nb int64) {
					t.Helper()
					part := want[blk*dev.BlockSize : (blk+nb)*dev.BlockSize]
					for i := range part {
						part[i] = byte(rng.Intn(256))
					}
					if err := il.WriteBlocks(p, blk, part); err != nil {
						t.Fatalf("write [%d,%d): %v", blk, blk+nb, err)
					}
				}
				for i := 0; i < 20; i++ { // read-modify small writes, some spanning rows
					blk := int64(rng.Intn(int(total) - 1))
					write(blk, 1+int64(rng.Intn(int(min(total-blk, int64(2*tc.unit))))))
				}
				got := make([]byte, len(want))
				for fail := 0; fail < tc.n; fail++ {
					il.setFailed(fail, true)
					// A small write with the spindle down rebuilds the
					// failed lane from old parity before recomputing it.
					blk := int64(rng.Intn(int(total) - 1))
					write(blk, 1)
					clear(got)
					if err := il.ReadBlocks(p, 0, got); err != nil {
						t.Fatalf("degraded read with spindle %d down: %v", fail, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("degraded read with spindle %d down returned wrong data", fail)
					}
					il.setFailed(fail, false)
					// The repaired spindle's lane is stale where the
					// degraded write landed; rewrite it so the next
					// spindle's turn starts from a consistent farm.
					write(blk, 1)
				}
				clear(got)
				if err := il.ReadBlocks(p, 0, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("healthy read after the degraded rounds returned wrong data")
				}
			})
		})
	}
}
