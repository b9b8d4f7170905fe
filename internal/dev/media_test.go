package dev

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// diskModel is the reference the extent store is checked against: the
// block maps Disk itself used to be, kept as plainly as possible.
type diskModel struct {
	durable map[int64][]byte
	cached  map[int64][]byte
	order   []int64 // FIFO destage order of cached
	wcap    int
	applied int              // blocks that reached the platter, one event of the disk's Cut each
	cutAt   int              // the block at which a cut falls (0: none) ...
	cut     map[int64][]byte // ... and the durable blocks it leaves
}

// apply counts a block that reached the platter, saving the durable blocks
// if the cut falls at it.
func (m *diskModel) apply() {
	if m.applied++; m.applied == m.cutAt {
		m.cut = maps.Clone(m.durable)
	}
}

func (m *diskModel) destage(n int) {
	for ; n > 0; n-- {
		blk := m.order[0]
		m.order = m.order[1:]
		m.durable[blk] = m.cached[blk]
		delete(m.cached, blk)
		m.apply()
	}
}

func (m *diskModel) write(blk int64, data []byte) {
	for ; len(data) > 0; blk, data = blk+1, data[BlockSize:] {
		b := bytes.Clone(data[:BlockSize])
		switch _, hit := m.cached[blk]; {
		case m.wcap == 0:
			m.durable[blk] = b
			m.apply()
		case hit:
			m.cached[blk] = b
		default:
			m.cached[blk] = b
			m.order = append(m.order, blk)
			m.destage(max(0, len(m.order)-m.wcap))
		}
	}
}

// discard forgets nb blocks from blk on, durable and cached alike.
func (m *diskModel) discard(blk int64, nb int) {
	gone := func(b int64) bool { return b >= blk && b < blk+int64(nb) }
	maps.DeleteFunc(m.durable, func(b int64, _ []byte) bool { return gone(b) })
	maps.DeleteFunc(m.cached, func(b int64, _ []byte) bool { return gone(b) })
	m.order = slices.DeleteFunc(m.order, gone)
}

// extents is how many extents hold a durable block of the model.
func (m *diskModel) extents() int {
	es := map[int64]bool{}
	for b := range m.durable {
		es[b/extentBlocks] = true
	}
	return len(es)
}

// heldExtents is how many extents the disk's media hold: their own, shared
// or pending ones.
func heldExtents(d *Disk) int {
	n := len(d.store.pending)
	for e, x := range d.store.ext {
		if x != nil {
			n++
		}
		if _, ok := d.store.pending[int64(e)]; ok != (x == nil && d.store.written[e] != 0) {
			panic(fmt.Sprintf("extent %d: pending %v, absent %v with written bits %#x", e, ok, x == nil, d.store.written[e]))
		}
	}
	return n
}

// pendingIn reports whether blocks [blk, blk+nb) reach a pending extent.
func pendingIn(d *Disk, blk int64, nb int) bool {
	for e := blk / extentBlocks; e <= (blk+int64(nb)-1)/extentBlocks; e++ {
		if _, ok := d.store.pending[e]; ok {
			return true
		}
	}
	return false
}

// xorAll is the XOR of srcs, each n bytes (zeroes when there are none).
func xorAll(n int, srcs [][]byte) []byte {
	out := make([]byte, n)
	for _, src := range srcs {
		for i := range out {
			out[i] ^= src[i]
		}
	}
	return out
}

func (m *diskModel) read(blk int64, nb int) []byte {
	out := make([]byte, 0, nb*BlockSize)
	for i := int64(0); i < int64(nb); i++ {
		b, ok := m.cached[blk+i]
		if !ok {
			if b, ok = m.durable[blk+i]; !ok {
				b = make([]byte, BlockSize)
			}
		}
		out = append(out, b...)
	}
	return out
}

// durable is the disk's platter contents by block, the write cache excluded:
// what a power cut keeps.
func durable(d *Disk) map[int64][]byte {
	out := map[int64][]byte{}
	d.store.each(func(blk int64, data []byte) { out[blk] = bytes.Clone(data) })
	return out
}

// sameStoreBut is sameStore, except that a block of early may hold what b
// holds or what final does.
func sameStoreBut(a, b, final map[int64][]byte, early map[int64]bool) error {
	for blk := range early {
		if got, ok := a[blk]; ok && bytes.Equal(got, final[blk]) {
			if want, ok := b[blk]; !ok || !bytes.Equal(got, want) {
				b = maps.Clone(b)
				b[blk] = got
			}
		}
	}
	return sameStore(a, b)
}

func sameStore(a, b map[int64][]byte) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d blocks, want %d", len(a), len(b))
	}
	for blk, data := range b {
		if got, ok := a[blk]; !ok || !bytes.Equal(got, data) {
			return fmt.Errorf("block %d missing or different", blk)
		}
	}
	return nil
}

// TestDiskMatchesMapModel drives a Disk and the map model with one seeded
// stream of operations — writes and reads of 1 to 40 blocks anywhere on an
// odd-sized disk (so they straddle extent and maxTransfer boundaries and
// reach the last, partial extent), write cache switched on, resized and
// off, Flush, images saved and loaded back in place later (a power cycle),
// images saved and loaded into a second disk — and compares every read and
// every durable image. A third of the writes are adoptions (AdoptBlocks),
// half of those of whole extents, and no buffer adopted may change after;
// another sixth go down as several parts (WriteParts) with mixed keep bits,
// the parts not kept overwritten at once. A third of the reads are shares
// (ShareBlocks), half of those of whole extents, and no buffer shared into may
// change after either. Half the power cycles go back to the blank disk, and
// the whole disk is read around every power cycle and save, so a
// never-written block is seen to read as zeroes after LoadStore even through
// an extent an adoption or a share displaced and a write reused. A quarter of
// the steps plan a power cut (Cut) at one of their next 48 media events, and
// in half of those a second device sharing the Cut ticks it from another proc
// while the step runs, between a request's chunks too: the cut must fire once
// if the events reach it and never otherwise, and the image SaveStore writes
// inside At must hold exactly the model's durable blocks after as many blocks
// of this disk. The Cut counts every block that reached the platter.
// Some steps discard a range — whole extents, a piece of one, or an extent a
// kept write shared or left pending — which the model forgets like blocks
// never written, and the disk holds as many extents as the model has extents
// with a durable block. Some writes are a part named as the XOR of zero to
// three sources (Part.XorOf), half of them of whole extents and most kept,
// which the model holds as that XOR: the disk leaves the whole extents of a
// kept one pending, and every later read, lending read, share, overwrite,
// kept write, discard and the durable image at the end of each step must see
// the XOR; the Buf of such a write, scratch or one of its sources, must come
// back untouched. A third of the reads lend: one part per block, or per whole
// extent where one starts, each with a Lend slot, and a part must come back
// lent exactly where it lies whole in a shared extent of a plain disk and in
// one chunk of the request; across the seeds, whole-extent parts must ask of
// shared, owned, pending and absent extents, and of a write-cached disk. In
// seeds 1 and 1993 each of those kinds of step must reach a pending extent at
// least once. After every step the hand-over audit
// (HandOvers) must find every buffer handed over unchanged.
func TestDiskMatchesMapModel(t *testing.T) {
	const nblocks = 5*extentBlocks + 7
	lends := map[string]int{} // whole-extent parts of lending reads, by the state of their extent or disk
	crossed := 0              // cuts that fired in a request after the second device ticked between its chunks
	defer func() {
		t.Logf("whole-extent lending reads: %v; cuts past a second device's ticks inside the request: %d", lends, crossed)
		for _, state := range []string{"shared", "owned", "pending", "absent", "write-cached"} {
			if lends[state] == 0 {
				t.Errorf("no lending read asked for a whole %s extent", state)
			}
		}
		if crossed == 0 {
			t.Error("no cut fired in a request after a second device ticked the Cut between its chunks")
		}
	}()
	extentState := func(d *Disk, e int64) string {
		_, pending := d.store.pending[e]
		switch {
		case d.wcap > 0:
			return "write-cached"
		case pending:
			return "pending"
		case d.store.ext[e] == nil:
			return "absent"
		case d.store.shared[e]:
			return "shared"
		}
		return "owned"
	}
	for _, seed := range []uint64{1, 2, 1993} {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0))
			// lrng draws what changes no state: how a lending read cuts its
			// range into parts and what a write of an XOR passes as its Buf.
			// The op stream, and so every state the disk passes through, is
			// rng's alone.
			lrng := rand.New(rand.NewPCG(seed, 1))
			k := sim.NewKernel()
			d := NewDisk(k, RZ57, nblocks, nil)
			m := &diskModel{durable: map[int64][]byte{}, cached: map[int64][]byte{}}
			// crng draws where cuts fall and when the second device ticks:
			// a cut changes which pieces are kept, so not the op stream.
			crng := rand.New(rand.NewPCG(seed, 2))
			cut := &Cut{}
			d.Cut = cut
			var other int64 // events the second device ticked
			var cutImg []byte
			// early holds the blocks of the whole extents kept writes of this
			// step covered on a write-through disk: each is taken when the
			// first chunk reaching it is applied, so a cut in a later chunk
			// may find its later blocks new already.
			early := map[int64]bool{}
			kept := func(blk int64, nb int) {
				for e := (blk + extentBlocks - 1) / extentBlocks; d.wcap == 0 && (e+1)*extentBlocks <= blk+int64(nb); e++ {
					for b := e * extentBlocks; b < (e+1)*extentBlocks; b++ {
						early[b] = true
					}
				}
			}
			fired, cuts := 0, 0
			ticking, inOp, between := false, false, false
			cut.At = func() {
				fired++
				var img bytes.Buffer
				if err := d.SaveStore(&img); err != nil {
					t.Fatal(err)
				}
				cutImg = img.Bytes()
				if m.cutAt = int(cut.N - other); m.cutAt == m.applied {
					m.cut = maps.Clone(m.durable) // the model is already there
				}
				if !ticking && between {
					crossed++
				}
			}
			blank := validImage(t, nblocks)
			saved := blank                   // a power-cut image to come back to ...
			savedModel := map[int64][]byte{} // ... and the model's durable blocks then
			var adopted, handed [][]byte     // buffers given to AdoptBlocks or ShareBlocks, and copies of them
			sharedDiscards := 0
			reached := map[string]int{} // kinds of step that found a pending extent in their range
			// pendingExtent is a pending extent, if there is one and the dice
			// say so: a third of the ranges start in one while there is one.
			pendingExtent := func() (int64, bool) {
				if len(d.store.pending) == 0 || rng.IntN(3) != 0 {
					return 0, false
				}
				es := slices.Sorted(maps.Keys(d.store.pending))
				return es[rng.IntN(len(es))], true
			}
			span := func() (int64, int) {
				nb := 1 + rng.IntN(40)
				if e, ok := pendingExtent(); ok {
					return min(e*extentBlocks+rng.Int64N(extentBlocks), nblocks-int64(nb)), nb
				}
				if rng.IntN(4) == 0 {
					return nblocks - int64(nb), nb // ends on the last block
				}
				return rng.Int64N(nblocks - int64(nb) + 1), nb
			}
			// whole is one or two whole extents.
			whole := func() (int64, int) {
				n := 1 + rng.IntN(2)
				last := nblocks/extentBlocks - int64(n)
				if e, ok := pendingExtent(); ok {
					return min(e, last) * extentBlocks, n * extentBlocks
				}
				return rng.Int64N(last+1) * extentBlocks, n * extentBlocks
			}
			// readAll compares the whole disk with the model: never-written
			// blocks read as zeroes, whatever extent stands in for them.
			readAll := func(p *sim.Proc, step int) {
				all := bytes.Repeat([]byte{0xDB}, nblocks*BlockSize)
				if err := d.ReadBlocks(p, 0, all); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(all, m.read(0, nblocks)) {
					t.Fatalf("step %d: the disk reads other than the model", step)
				}
			}
			k.RunProc(func(p *sim.Proc) {
				for step := 0; step < 1000; step++ {
					done := true
					if crng.IntN(4) == 0 {
						cut.Target = cut.N + 1 + crng.Int64N(48)
						if crng.IntN(2) == 0 {
							done = false
							start, delay, n := cut.N-other, sim.Time(crng.Int64N(int64(200*time.Millisecond))), 1+crng.IntN(3)
							k.Go("second device", func(p *sim.Proc) {
								p.Sleep(delay)
								between = inOp && cut.N-other > start // this disk's request has applied a chunk
								ticking = true
								for range n {
									other++
									cut.Tick(1)
								}
								ticking, done = false, true
							})
						}
					}
					inOp = true
					switch op := rng.IntN(25); {
					case op < 8:
						blk, nb := span()
						adopt, parts := rng.IntN(3) == 0, rng.IntN(6) == 0
						if (adopt || rng.IntN(4) == 0) && rng.IntN(2) == 0 { // one or two whole extents
							blk, nb = whole()
						}
						if pendingIn(d, blk, nb) {
							switch {
							case adopt:
								reached["kept write"]++
							case nb%extentBlocks == 0 && blk%extentBlocks == 0:
								reached["whole overwrite"]++
							default:
								reached["overwrite"]++
							}
						}
						buf := make([]byte, nb*BlockSize)
						for i := 0; i < len(buf); i += 8 {
							binary.LittleEndian.PutUint64(buf[i:], rng.Uint64())
						}
						if parts && !adopt {
							var ps []Part
							for off := 0; off < nb; {
								n := 1 + rng.IntN(nb-off)
								ps = append(ps, Part{Blk: blk + int64(off), Buf: buf[off*BlockSize : (off+n)*BlockSize], Keep: rng.IntN(2) == 0})
								off += n
							}
							if err := d.WriteParts(p, ps); err != nil {
								t.Fatal(err)
							}
							m.write(blk, buf)
							for _, pt := range ps {
								if pt.Keep {
									kept(pt.Blk, len(pt.Buf)/BlockSize)
									adopted, handed = append(adopted, pt.Buf), append(handed, bytes.Clone(pt.Buf))
								} else {
									clear(pt.Buf)
								}
							}
							break
						}
						if !adopt {
							if err := d.WriteBlocks(p, blk, buf); err != nil {
								t.Fatal(err)
							}
							m.write(blk, buf)
							clear(buf) // the disk must not have kept it
							break
						}
						if err := d.AdoptBlocks(p, blk, buf); err != nil {
							t.Fatal(err)
						}
						m.write(blk, buf)
						kept(blk, nb)
						adopted, handed = append(adopted, buf), append(handed, bytes.Clone(buf))
					case op < 15:
						blk, nb := span()
						kind := []string{"read", "lending read", "share"}[rng.IntN(3)]
						read := d.ReadBlocks
						switch kind {
						case "share":
							read = d.ShareBlocks
							if rng.IntN(2) == 0 { // one or two whole extents
								blk, nb = whole()
							}
						case "lending read":
							read = func(p *sim.Proc, blk int64, buf []byte) error {
								// One part per block, or per whole extent where
								// one starts (three times in four). A part is lent
								// where it lies whole in a shared extent of a
								// plain disk and in one chunk of the request.
								var parts []Part
								var lend []bool
								plain := d.wcap == 0
								for off := 0; off < len(buf)/BlockSize; {
									at, n := blk+int64(off), 1
									if at%extentBlocks == 0 && len(buf)/BlockSize-off >= extentBlocks && lrng.IntN(4) != 0 {
										n = extentBlocks
										lends[extentState(d, at/extentBlocks)]++
									}
									parts = append(parts, Part{Blk: at, Buf: buf[off*BlockSize : (off+n)*BlockSize]})
									lend = append(lend, plain && d.store.shared[at/extentBlocks] && (n == 1 || off%extentBlocks == 0))
									off += n
								}
								views := make([][]byte, len(parts))
								for i := range parts {
									parts[i].Lend = &views[i]
								}
								err := d.ReadParts(p, parts)
								for i, v := range views {
									if (v != nil) != lend[i] {
										t.Fatalf("step %d: a %d-block part at block %d lent %v, want %v", step, len(parts[i].Buf)/BlockSize, parts[i].Blk, v != nil, lend[i])
									}
									if v != nil {
										copy(parts[i].Buf, v)
									}
								}
								return err
							}
						}
						if pendingIn(d, blk, nb) {
							reached[kind]++
						}
						got := bytes.Repeat([]byte{0xDB}, nb*BlockSize)
						if err := read(p, blk, got); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, m.read(blk, nb)) {
							t.Fatalf("step %d: read of [%d,%d) differs from the model", step, blk, blk+int64(nb))
						}
						if kind == "share" {
							adopted, handed = append(adopted, got), append(handed, bytes.Clone(got))
						}
					case op == 15:
						m.wcap = []int{0, 0, 3, 16, 50}[rng.IntN(5)]
						d.EnableWriteCache(m.wcap)
						if m.wcap == 0 {
							m.destage(len(m.order))
						}
					case op == 16:
						if err := d.Flush(p); err != nil {
							t.Fatal(err)
						}
						m.destage(len(m.order))
					case op == 17:
						readAll(p, step)
						var img bytes.Buffer
						if err := d.SaveStore(&img); err != nil {
							t.Fatal(err)
						}
						saved, savedModel = img.Bytes(), maps.Clone(m.durable)
					case op == 18:
						readAll(p, step)
						img, model := saved, savedModel
						if rng.IntN(2) == 0 {
							img, model = blank, map[int64][]byte{}
						}
						if err := d.LoadStore(bytes.NewReader(img)); err != nil {
							t.Fatal(err)
						}
						m.durable, m.cached, m.order = maps.Clone(model), map[int64][]byte{}, nil
						readAll(p, step)
						// The loaded media hold none of the buffers handed over
						// before: compare them a last time and stop tracking them.
						for i := range adopted {
							if !bytes.Equal(adopted[i], handed[i]) {
								t.Fatalf("step %d: a buffer adopted earlier changed", step)
							}
						}
						adopted, handed = nil, nil
					case op >= 22:
						blk, nb := span()
						if rng.IntN(2) == 0 { // one or two whole extents
							blk, nb = whole()
						}
						if pendingIn(d, blk, nb) {
							reached["XOR write"]++
						}
						srcs := make([][]byte, rng.IntN(4))
						for i := range srcs {
							srcs[i] = make([]byte, nb*BlockSize)
							for j := 0; j < len(srcs[i]); j += 8 {
								binary.LittleEndian.PutUint64(srcs[i][j:], rng.Uint64())
							}
						}
						keep := rng.IntN(4) != 0
						if keep {
							kept(blk, nb)
						}
						// Buf gives the length only: the disk neither reads
						// nor writes it, be it scratch or one of the sources.
						want := xorAll(nb*BlockSize, srcs)
						scratch := bytes.Repeat([]byte{0xDB}, nb*BlockSize)
						lenOnly := scratch
						if len(srcs) > 0 && lrng.IntN(2) == 0 {
							lenOnly = srcs[0]
						}
						if err := d.WriteParts(p, []Part{{Blk: blk, Buf: lenOnly, Keep: keep, XorOf: &srcs}}); err != nil {
							t.Fatal(err)
						}
						m.write(blk, want)
						if !bytes.Equal(scratch, bytes.Repeat([]byte{0xDB}, nb*BlockSize)) {
							t.Fatalf("step %d: a write of an XOR wrote into its Buf", step)
						}
						clear(scratch) // the scratch is never kept
						for _, src := range srcs {
							if keep {
								adopted, handed = append(adopted, src), append(handed, bytes.Clone(src))
							} else {
								clear(src) // nor are the sources of a part not kept
							}
						}
					case op >= 20:
						blk, nb := span()
						switch rng.IntN(3) {
						case 0: // one or two whole extents
							blk, nb = whole()
						case 1: // all or part of an extent a kept write shared or left pending, if any
							var taken []int64
							for e, sh := range d.store.shared {
								if _, ok := d.store.pending[int64(e)]; sh || ok {
									taken = append(taken, int64(e))
								}
							}
							if len(taken) > 0 {
								e, i := taken[rng.IntN(len(taken))], rng.IntN(extentBlocks)
								if d.store.shared[e] { // a pending one counts in reached["discard"]
									sharedDiscards++
								}
								blk, nb = e*extentBlocks+int64(i), 1+rng.IntN(extentBlocks-i)
							}
						}
						if pendingIn(d, blk, nb) {
							reached["discard"]++
						}
						d.Discard(blk, int64(nb))
						m.discard(blk, nb)
					case op == 19:
						var img bytes.Buffer
						if err := d.SaveStore(&img); err != nil {
							t.Fatal(err)
						}
						d2 := NewDisk(k, RZ57, nblocks, nil)
						if err := d2.LoadStore(&img); err != nil {
							t.Fatal(err)
						}
						if err := sameStore(durable(d2), m.durable); err != nil {
							t.Fatalf("step %d: saved and reloaded image: %v", step, err)
						}
					}
					inOp = false
					for !done {
						p.Sleep(time.Millisecond)
					}
					between = false
					if cut.Target > 0 {
						if fired > 1 || (fired == 1) != (cut.N >= cut.Target) {
							t.Fatalf("step %d: a cut at event %d fired %d times over %d events", step, cut.Target, fired, cut.N)
						}
						if fired == 1 {
							at := NewDisk(k, RZ57, nblocks, nil)
							if err := at.LoadStore(bytes.NewReader(cutImg)); err != nil {
								t.Fatal(err)
							}
							if err := sameStoreBut(durable(at), m.cut, m.durable, early); err != nil {
								t.Fatalf("step %d: the image saved at the cut at block %d: %v", step, m.cutAt, err)
							}
							cuts++
						}
						cut.Target, fired, m.cutAt, m.cut = 0, 0, 0, nil
					}
					clear(early)
					if got := d.WriteCacheDirty(); got != len(m.order) {
						t.Fatalf("step %d: %d blocks in the write cache, model has %d", step, got, len(m.order))
					}
					if err := sameStore(durable(d), m.durable); err != nil {
						t.Fatalf("step %d: durable image: %v", step, err)
					}
					if got, want := heldExtents(d), m.extents(); got != want {
						t.Fatalf("step %d: the disk holds %d extents, the model has %d with a written block", step, got, want)
					}
					if got := cut.N - other; got != int64(m.applied) {
						t.Fatalf("step %d: the cut counted %d media writes, model applied %d", step, got, m.applied)
					}
					for i := range adopted {
						if !bytes.Equal(adopted[i], handed[i]) {
							t.Fatalf("step %d: a buffer adopted earlier changed", step)
						}
					}
					if err := Audit.Check(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			})
			if sharedDiscards == 0 {
				t.Error("no step discarded an extent a kept write shared")
			}
			for _, kind := range []string{"read", "lending read", "share", "overwrite", "whole overwrite", "kept write", "XOR write", "discard"} {
				if reached[kind] == 0 && seed != 2 { // seed 2's stream reaches only some
					t.Errorf("no %s reached a pending extent", kind)
				}
			}
			t.Logf("cuts: %d; discards of a shared extent: %d; steps that reached a pending extent: %v", cuts, sharedDiscards, reached)
		})
	}
}

// TestMediaWriteHookSeesTornPrefix pins the order the crash harness cuts
// power in: a Cut at the request's block i fires once, and in its At a
// snapshot holds the new contents of the request's blocks up to i and the old
// contents of the rest — on a direct write and on a destage from the write
// cache alike, whichever of the request's chunks the cut falls in.
func TestMediaWriteHookSeesTornPrefix(t *testing.T) {
	const first, nb = extentBlocks - 3, 2 * extentBlocks // straddles three extents
	fill := func(v byte) []byte {
		buf := make([]byte, nb*BlockSize)
		for i := range buf {
			buf[i] = v + byte(i/BlockSize)
		}
		return buf
	}
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprint("write cache ", cached), func(t *testing.T) {
			for at := int64(1); at <= nb; at++ {
				k := sim.NewKernel()
				d := NewDisk(k, RZ57, 4*extentBlocks, nil)
				k.RunProc(func(p *sim.Proc) {
					if err := d.WriteBlocks(p, first, fill(1)); err != nil {
						t.Fatal(err)
					}
					if cached {
						d.EnableWriteCache(nb)
					}
					fired := 0
					d.Cut = &Cut{Target: at, At: func() {
						fired++
						snap := durable(d)
						for i := int64(0); i < nb; i++ {
							want := byte(1 + i) // old
							if i < at {
								want = byte(101 + i) // new
							}
							if got := snap[first+i][0]; got != want {
								t.Fatalf("in the cut at block %d, block %d starts with %d, want %d", first+at-1, first+i, got, want)
							}
						}
					}}
					if err := d.WriteBlocks(p, first, fill(101)); err != nil {
						t.Fatal(err)
					}
					if cached && d.Cut.N != 0 {
						t.Fatalf("%d blocks reached the platter before Flush", d.Cut.N)
					}
					if err := d.Flush(p); err != nil {
						t.Fatal(err)
					}
					if fired != 1 || d.Cut.N != nb {
						t.Fatalf("the cut at %d fired %d times over %d events, want once over %d", at, fired, d.Cut.N, nb)
					}
				})
			}
		})
	}
}

// TestAdoptedLineCopiesOnWrite: a write into any block of an adopted 1 MB
// line leaves the adopted image as it was, and the line reads back as the
// image with that block replaced.
func TestAdoptedLineCopiesOnWrite(t *testing.T) {
	const line, nb = 2 * extentBlocks, 1 << 20 / BlockSize
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, line+nb+extentBlocks, nil)
	img := make([]byte, nb*BlockSize)
	for i := range img {
		img[i] = byte(i/BlockSize + 1)
	}
	orig := bytes.Clone(img)
	blk := bytes.Repeat([]byte{0xEE}, BlockSize)
	got := make([]byte, len(img))
	k.RunProc(func(p *sim.Proc) {
		for b := 0; b < nb; b++ {
			if err := d.AdoptBlocks(p, line, img); err != nil {
				t.Fatal(err)
			}
			if err := d.WriteBlocks(p, line+int64(b), blk); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img, orig) {
				t.Fatalf("writing block %d of the line changed the adopted image", b)
			}
			if err := d.ReadBlocks(p, line, got); err != nil {
				t.Fatal(err)
			}
			want := bytes.Clone(orig)
			copy(want[b*BlockSize:], blk)
			if !bytes.Equal(got, want) {
				t.Fatalf("after writing block %d the line does not read as the image with that block replaced", b)
			}
		}
	})
}

// TestSharedLineCopiesOnWrite: a 1 MB line written in pieces and then read
// with ShareBlocks hands the reader's image over; rewriting the line, whole or
// one block, leaves that image as it was, and reads return the new data.
func TestSharedLineCopiesOnWrite(t *testing.T) {
	const line, nb = 2 * extentBlocks, 1 << 20 / BlockSize
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, line+nb+extentBlocks, nil)
	fill := func(v byte) []byte {
		b := make([]byte, nb*BlockSize)
		for i := range b {
			b[i] = v + byte(i/BlockSize)
		}
		return b
	}
	k.RunProc(func(p *sim.Proc) {
		write := func(buf []byte) { // in eight pieces, as partial segments land
			for off := 0; off < len(buf); off += len(buf) / 8 {
				if err := d.WriteBlocks(p, line+int64(off/BlockSize), buf[off:off+len(buf)/8]); err != nil {
					t.Fatal(err)
				}
			}
		}
		readBack := func() []byte {
			got := make([]byte, nb*BlockSize)
			if err := d.ReadBlocks(p, line, got); err != nil {
				t.Fatal(err)
			}
			return got
		}
		write(fill(1))
		img := make([]byte, nb*BlockSize)
		if err := d.ShareBlocks(p, line, img); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, fill(1)) {
			t.Fatal("ShareBlocks did not read the line")
		}
		write(fill(101))
		if !bytes.Equal(img, fill(1)) {
			t.Fatal("rewriting the line changed the image it was shared into")
		}
		if !bytes.Equal(readBack(), fill(101)) {
			t.Fatal("the rewritten line does not read back as the new data")
		}
		img = make([]byte, nb*BlockSize)
		if err := d.ShareBlocks(p, line, img); err != nil {
			t.Fatal(err)
		}
		one := bytes.Repeat([]byte{0xEE}, BlockSize)
		if err := d.WriteBlocks(p, line+21, one); err != nil {
			t.Fatal(err)
		}
		want := fill(101)
		copy(want[21*BlockSize:], one)
		if !bytes.Equal(img, fill(101)) || !bytes.Equal(readBack(), want) {
			t.Fatal("a one-block write into a shared line changed the image, or does not read back")
		}
	})
}

// TestShareBlocksSavesAsReadBlocks: a disk that shared its extents, one of
// them partly written, saves the same image as a twin that read them with
// ReadBlocks, and still does after writes into the shared extents' written
// and never-written blocks.
func TestShareBlocksSavesAsReadBlocks(t *testing.T) {
	const x = extentBlocks
	save := func(share bool) (imgs [][]byte) {
		k := sim.NewKernel()
		d := NewDisk(k, RZ57, 6*x, nil)
		k.RunProc(func(p *sim.Proc) {
			write := func(blk int64, nb int, v byte) {
				if err := d.WriteBlocks(p, blk, bytes.Repeat([]byte{v}, nb*BlockSize)); err != nil {
					t.Fatal(err)
				}
			}
			snap := func() {
				var img bytes.Buffer
				if err := d.SaveStore(&img); err != nil {
					t.Fatal(err)
				}
				imgs = append(imgs, img.Bytes())
			}
			write(0, x, 0x11)
			write(x+3, 5, 0x22) // blocks 3-7 of the second extent only
			write(2*x, x, 0x33)
			read := d.ReadBlocks
			if share {
				read = d.ShareBlocks
			}
			if err := read(p, 0, make([]byte, 4*x*BlockSize)); err != nil { // the fourth extent is absent
				t.Fatal(err)
			}
			snap()
			write(x+10, 2, 0x44) // never-written blocks of the partly written extent
			write(5, 1, 0x55)
			snap()
		})
		return imgs
	}
	read, shared := save(false), save(true)
	for i := range read {
		if !bytes.Equal(shared[i], read[i]) {
			t.Errorf("image %d: the disk that shared saves other bytes than the one that read", i)
		}
	}
}

// cutEvery is a Cut that falls at every event, logging the virtual time and
// number of each: every piece a disk writes then goes a block at a time.
func cutEvery(k *sim.Kernel, log *[]string) *Cut {
	c := &Cut{Target: 1}
	c.At = func() { *log = append(*log, fmt.Sprint(k.Now(), c.N)); c.Target++ }
	return c
}

// TestShareBlocksUnderWatchIsReadBlocks: with a write cache, ShareBlocks
// destages the same blocks, at the same virtual times, leaves the same
// platter and reads the same bytes as ReadBlocks, and keeps nothing: the
// caller's buffer changing afterwards (which the Adopter contract forbids)
// changes nothing on the disk. (A write-through disk shares what it reads:
// TestShareBlocksSavesAsReadBlocks covers it.)
func TestShareBlocksUnderWatchIsReadBlocks(t *testing.T) {
	const nb = 2 * extentBlocks
	t.Run("write cache true", func(t *testing.T) {
		run := func(share bool) (events []string, platter map[int64][]byte, got []byte) {
			k := sim.NewKernel()
			d := NewDisk(k, RZ57, 4*extentBlocks, nil)
			d.EnableWriteCache(extentBlocks)
			d.Cut = cutEvery(k, &events)
			k.RunProc(func(p *sim.Proc) {
				if err := d.WriteBlocks(p, extentBlocks, bytes.Repeat([]byte{0x5A}, nb*BlockSize)); err != nil {
					t.Fatal(err)
				}
				read := d.ReadBlocks
				if share {
					read = d.ShareBlocks
				}
				buf := make([]byte, nb*BlockSize)
				if err := read(p, extentBlocks, buf); err != nil {
					t.Fatal(err)
				}
				clear(buf)
				if err := d.Flush(p); err != nil {
					t.Fatal(err)
				}
				got = make([]byte, nb*BlockSize)
				if err := d.ReadBlocks(p, extentBlocks, got); err != nil {
					t.Fatal(err)
				}
			})
			return events, durable(d), got
		}
		re, rp, rg := run(false)
		se, sp, sg := run(true)
		if !slices.Equal(se, re) {
			t.Errorf("ShareBlocks reached the platter at %v, ReadBlocks at %v", se, re)
		}
		if err := sameStore(sp, rp); err != nil {
			t.Errorf("ShareBlocks left another platter than ReadBlocks: %v", err)
		}
		if !bytes.Equal(sg, rg) || !bytes.Equal(sg, bytes.Repeat([]byte{0x5A}, nb*BlockSize)) {
			t.Error("under a write cache, the disk kept the buffer ShareBlocks read into")
		}
	})
}

// TestDisplacedExtentsAreReset: the extents an adoption displaces are the
// ones the next writes that need an extent of the disk's own take, and each
// reads as what it stands in for — zeroes around a block written into a
// never-written extent, the adopted bytes around one written into an adopted
// extent — on a fresh disk and after a power cycle.
func TestDisplacedExtentsAreReset(t *testing.T) {
	const x = extentBlocks
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 8*x, nil)
	fill := func(v byte, nb int) []byte { return bytes.Repeat([]byte{v}, nb*BlockSize) }
	img := fill(0x11, 2*x)
	k.RunProc(func(p *sim.Proc) {
		for _, base := range []int64{0, 4 * x} {
			write := func(blk int64, buf []byte) {
				if err := d.WriteBlocks(p, blk, buf); err != nil {
					t.Fatal(err)
				}
			}
			write(base, fill(0xAA, 2*x))
			if err := d.AdoptBlocks(p, base, img); err != nil { // displaces both extents
				t.Fatal(err)
			}
			write(base+3*x+5, fill(0xEE, 1)) // a never-written extent
			write(base+7, fill(0xEE, 1))     // an adopted one
			got := make([]byte, 4*x*BlockSize)
			if err := d.ReadBlocks(p, base, got); err != nil {
				t.Fatal(err)
			}
			want := append(bytes.Clone(img), fill(0, 2*x)...)
			copy(want[(3*x+5)*BlockSize:], fill(0xEE, 1))
			copy(want[7*BlockSize:], fill(0xEE, 1))
			if !bytes.Equal(got, want) || !bytes.Equal(img, fill(0x11, 2*x)) {
				t.Fatalf("from block %d: a reused extent reads other than what it stands in for, or the image changed", base)
			}
			var saved bytes.Buffer
			if err := d.SaveStore(&saved); err != nil {
				t.Fatal(err)
			}
			if err := d.LoadStore(&saved); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestAdoptBlocksUnderWatchIsWriteBlocks: with a write cache, or with a cut
// falling inside every piece, AdoptBlocks reaches the platter block by block
// at the same virtual times and leaves the same platter as WriteBlocks, and it
// has copied: the caller's buffer changing afterwards (which the Adopter
// contract forbids) changes nothing on the disk.
func TestAdoptBlocksUnderWatchIsWriteBlocks(t *testing.T) {
	const nb = 2 * extentBlocks
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprint("write cache ", cached), func(t *testing.T) {
			run := func(adopt bool) (events []string, platter map[int64][]byte) {
				k := sim.NewKernel()
				d := NewDisk(k, RZ57, 4*extentBlocks, nil)
				if cached {
					d.EnableWriteCache(extentBlocks)
				}
				d.Cut = cutEvery(k, &events)
				buf := bytes.Repeat([]byte{0x5A}, nb*BlockSize)
				k.RunProc(func(p *sim.Proc) {
					write := d.WriteBlocks
					if adopt {
						write = d.AdoptBlocks
					}
					if err := write(p, extentBlocks, buf); err != nil {
						t.Fatal(err)
					}
					clear(buf)
					if err := d.Flush(p); err != nil {
						t.Fatal(err)
					}
				})
				return events, durable(d)
			}
			we, wp := run(false)
			ae, ap := run(true)
			if !slices.Equal(ae, we) {
				t.Errorf("AdoptBlocks reached the platter at %v, WriteBlocks at %v", ae, we)
			}
			if err := sameStore(ap, wp); err != nil {
				t.Errorf("AdoptBlocks left another platter than WriteBlocks: %v", err)
			}
			if len(we) != nb {
				t.Errorf("%d media events, want %d", len(we), nb)
			}
		})
	}
}

// TestDiskSteadyStateAllocations gates the platter path: reading and
// rewriting blocks that exist allocates nothing, with or without the write
// cache, first touch costs one allocation per maxTransfer extent, and
// adopting whole extents, or rewriting a line and sharing it, allocates
// nothing.
func TestDiskSteadyStateAllocations(t *testing.T) {
	const mb = 1 << 20 / BlockSize
	const runs = 8
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, (runs+2)*mb, nil)
	buf := make([]byte, 1<<20)
	k.RunProc(func(p *sim.Proc) {
		next := int64(0)
		touch := testing.AllocsPerRun(runs, func() {
			if err := d.WriteBlocks(p, next, buf); err != nil {
				t.Fatal(err)
			}
			next += mb
		})
		if limit := float64(len(buf) / maxTransfer); touch > limit {
			t.Errorf("first touch of 1 MB: %v allocations, want at most %v (one per extent)", touch, limit)
		}
		rewrite := func() {
			if err := d.WriteBlocks(p, 3, buf); err != nil { // unaligned: every chunk straddles two extents
				t.Fatal(err)
			}
			if err := d.ReadBlocks(p, 5, buf); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(runs, rewrite); n != 0 {
			t.Errorf("write-through rewrite and read of 1 MB: %v allocations, want 0", n)
		}
		d.EnableWriteCache(64)
		if n := testing.AllocsPerRun(runs, rewrite); n != 0 {
			t.Errorf("write-cache rewrite and read of 1 MB: %v allocations, want 0", n)
		}
		d.EnableWriteCache(0)
		img := make([]byte, 1<<20)
		if n := testing.AllocsPerRun(runs, func() {
			if err := d.AdoptBlocks(p, 2*mb, img); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("adopting 1 MB: %v allocations, want 0", n)
		}
		// The whole line is rewritten before each share, so the disk no
		// longer holds img when the next share reads into it.
		if n := testing.AllocsPerRun(runs, func() {
			if err := d.WriteBlocks(p, 0, buf); err != nil {
				t.Fatal(err)
			}
			if err := d.ShareBlocks(p, 0, img); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("rewriting and sharing 1 MB: %v allocations, want 0 (the rewrite takes the extents the share displaced)", n)
		}
	})
}

// TestDiscardOfWholeExtentsAllocatesNothing: dropping whole extents, ours or
// a kept write's, is bookkeeping: no allocation, and the disk holds none of
// them afterwards.
func TestDiscardOfWholeExtentsAllocatesNothing(t *testing.T) {
	const mb = 1 << 20 / BlockSize
	const runs = 8
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, (runs+2)*mb, nil)
	k.RunProc(func(p *sim.Proc) {
		buf := bytes.Repeat([]byte{0xA5}, 1<<20)
		for i := int64(0); i <= runs; i++ { // one region per run, and one for AllocsPerRun's warm-up
			if err := d.WriteBlocks(p, i*mb, buf); err != nil {
				t.Fatal(err)
			}
		}
		next := int64(0)
		if n := testing.AllocsPerRun(runs, func() {
			d.Discard(next, mb)
			next += mb
		}); n != 0 {
			t.Errorf("discarding 1 MB of whole extents of ours: %v allocations, want 0", n)
		}
		if n := testing.AllocsPerRun(runs, func() {
			if err := d.AdoptBlocks(p, (runs+1)*mb, buf); err != nil {
				t.Fatal(err)
			}
			d.Discard((runs+1)*mb, mb)
		}); n != 0 {
			t.Errorf("adopting and discarding 1 MB: %v allocations, want 0", n)
		}
		if n := heldExtents(d); n != 0 || len(d.store.spare) != 0 {
			t.Errorf("after discarding everything the disk holds %d extents and %d spare, want none", n, len(d.store.spare))
		}
		got := make([]byte, len(buf))
		if err := d.ReadBlocks(p, (runs+1)*mb, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, len(got))) {
			t.Error("a discarded block does not read as zeroes")
		}
	})
}

// validImage is a SaveStore image of a disk of nblocks with a few blocks
// written, ascending.
func validImage(t testing.TB, nblocks int64, blks ...int64) []byte {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, nblocks, nil)
	k.RunProc(func(p *sim.Proc) {
		for _, blk := range blks {
			if err := d.WriteBlocks(p, blk, bytes.Repeat([]byte{byte('A' + blk%26)}, BlockSize)); err != nil {
				t.Fatal(err)
			}
		}
	})
	var img bytes.Buffer
	if err := d.SaveStore(&img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

// TestSaveStoreIsDeterministic: an image is a function of the contents —
// saving twice, and saving what was loaded, give the same bytes. Blocks are
// written in descending order so that insertion order cannot be what sorts
// them.
func TestSaveStoreIsDeterministic(t *testing.T) {
	const nblocks = 40 * extentBlocks
	var blks []int64
	for blk := int64(nblocks - 1); blk >= 0; blk -= 7 {
		blks = append(blks, blk)
	}
	first := validImage(t, nblocks, blks...)
	if again := validImage(t, nblocks, blks...); !bytes.Equal(first, again) {
		t.Error("two saves of the same contents differ")
	}
	d := NewDisk(sim.NewKernel(), RZ57, nblocks, nil)
	if err := d.LoadStore(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := d.SaveStore(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, resaved.Bytes()) {
		t.Error("save → load → save changed the image")
	}
}

// TestLoadStoreIsAPowerCycle: loading an image into a disk whose write cache
// holds a newer block drops that block, so neither a read nor the next Flush
// sees it over the loaded image, and parks the arm at block 0.
func TestLoadStoreIsAPowerCycle(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 64, nil)
	d.EnableWriteCache(16)
	block := func(v byte) []byte { return bytes.Repeat([]byte{v}, BlockSize) }
	k.RunProc(func(p *sim.Proc) {
		if err := d.WriteBlocks(p, 5, block(0xA)); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(p); err != nil {
			t.Fatal(err)
		}
		var img bytes.Buffer
		if err := d.SaveStore(&img); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteBlocks(p, 5, block(0xB)); err != nil {
			t.Fatal(err)
		}
		if err := d.LoadStore(&img); err != nil {
			t.Fatal(err)
		}
		if n := d.WriteCacheDirty(); n != 0 || d.head != 0 {
			t.Fatalf("after LoadStore: %d blocks in the write cache, arm at %d; want 0 and 0", n, d.head)
		}
		if err := d.Flush(p); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, BlockSize)
		if err := d.ReadBlocks(p, 5, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, block(0xA)) || !bytes.Equal(durable(d)[5], block(0xA)) {
			t.Fatalf("block 5 reads %#x, on the platter %#x; want the loaded image's 0xa", got[0], durable(d)[5][0])
		}
	})
}

// TestLoadStoreRejectsBadImages names each way an image can be wrong; the
// fuzz target below looks for the ones not thought of.
func TestLoadStoreRejectsBadImages(t *testing.T) {
	const nblocks = 64
	const rec = 8 + BlockSize
	good := validImage(t, nblocks, 3, 40)
	edit := func(f func(img []byte) []byte) []byte { return f(bytes.Clone(good)) }
	for name, img := range map[string][]byte{
		"empty":            nil,
		"short header":     good[:10],
		"bad magic":        edit(func(b []byte) []byte { b[0] ^= 1; return b }),
		"other disk size":  edit(func(b []byte) []byte { b[4]++; return b }),
		"truncated record": good[:len(good)-1],
		"count too large":  edit(func(b []byte) []byte { b[12] = 3; return b }),
		"count huge":       edit(func(b []byte) []byte { b[19] = 0x7f; return b }),
		"block past end":   edit(func(b []byte) []byte { b[20] = nblocks; return b }),
		"negative block":   edit(func(b []byte) []byte { b[20+7] = 0x80; return b }),
		"duplicate block":  edit(func(b []byte) []byte { b[20+rec] = 3; return b }),
	} {
		d := NewDisk(sim.NewKernel(), RZ57, nblocks, nil)
		before := validImage(t, nblocks, 9)
		if err := d.LoadStore(bytes.NewReader(before)); err != nil {
			t.Fatal(err)
		}
		if err := d.LoadStore(bytes.NewReader(img)); !errors.Is(err, ErrBadImage) {
			t.Errorf("%s: error %v, want ErrBadImage", name, err)
		}
		var after bytes.Buffer
		if err := d.SaveStore(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after.Bytes()) {
			t.Errorf("%s: a rejected image changed the disk", name)
		}
	}
}

// FuzzDiskLoadStore: whatever the stream, LoadStore returns nil or
// ErrBadImage and does not panic; an accepted image saves back to a stream
// that loads to the same contents.
func FuzzDiskLoadStore(f *testing.F) {
	const nblocks = 64
	f.Add(validImage(f, nblocks, 0, 17, 63))
	f.Fuzz(func(t *testing.T, img []byte) {
		d := NewDisk(sim.NewKernel(), RZ57, nblocks, nil)
		if err := d.LoadStore(bytes.NewReader(img)); err != nil {
			if !errors.Is(err, ErrBadImage) {
				t.Fatalf("error %v is not ErrBadImage", err)
			}
			return
		}
		var out bytes.Buffer
		if err := d.SaveStore(&out); err != nil {
			t.Fatal(err)
		}
		d2 := NewDisk(sim.NewKernel(), RZ57, nblocks, nil)
		if err := d2.LoadStore(&out); err != nil {
			t.Fatalf("reloading an accepted image: %v", err)
		}
		if err := sameStore(durable(d2), durable(d)); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkDiskRead1MB is the read twin of BenchmarkDiskWrite1MB in `make
// bench-layers`: 1 MB reads of written blocks, nothing in the write cache.
func BenchmarkDiskRead1MB(b *testing.B) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 1024, nil)
	buf := make([]byte, 1<<20)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	k.RunProc(func(p *sim.Proc) {
		for blk := int64(0); blk < 1024; blk += 256 {
			if err := d.WriteBlocks(p, blk, buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.ReadBlocks(p, int64(i%4)*256, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestLendOnlyWhatTheDiskDoesNotOwn: a read whose one-block parts, or whole
// extent parts, carry Lend slots gets views of an adopted extent and its own
// extents filled; the stats, the clock and the bytes are those of the same
// read filled. A disk with a write cache, and a part of two blocks, fill
// instead of lending.
func TestLendOnlyWhatTheDiskDoesNotOwn(t *testing.T) {
	const nb = 2 * extentBlocks // an extent of ours, then an adopted one
	for _, mode := range []string{"write-through", "write cache", "two-block parts", "extent parts"} {
		t.Run(mode, func(t *testing.T) {
			k := sim.NewKernel()
			d := NewDisk(k, RZ57, 4*extentBlocks, nil)
			twin := NewDisk(k, RZ57, 4*extentBlocks, nil)
			img := make([]byte, extentBlocks*BlockSize)
			for i := range img {
				img[i] = byte(i/BlockSize + 1)
			}
			ours := bytes.Repeat([]byte{0x5A}, extentBlocks*BlockSize)
			k.RunProc(func(p *sim.Proc) {
				for _, disk := range []*Disk{d, twin} {
					if mode == "write cache" {
						disk.EnableWriteCache(8)
					}
					if err := disk.WriteBlocks(p, 0, ours); err != nil {
						t.Fatal(err)
					}
					if err := disk.AdoptBlocks(p, extentBlocks, img); err != nil {
						t.Fatal(err)
					}
				}
				per := 1 // blocks a part
				switch mode {
				case "two-block parts":
					per = 2
				case "extent parts":
					per = extentBlocks
				}
				parts := make([]Part, nb/per)
				views := make([][]byte, len(parts))
				for i := range parts {
					parts[i] = Part{Blk: int64(i * per), Buf: make([]byte, per*BlockSize), Lend: &views[i]}
				}
				t0 := p.Now()
				if err := d.ReadParts(p, parts); err != nil {
					t.Fatal(err)
				}
				took := p.Now() - t0
				want := make([]byte, nb*BlockSize)
				t0 = p.Now()
				if err := twin.ReadBlocks(p, 0, want); err != nil {
					t.Fatal(err)
				}
				if took != p.Now()-t0 || d.Stats() != twin.Stats() {
					t.Fatalf("lending read cost %v and %+v, a filled one %v and %+v", took, d.Stats(), p.Now()-t0, twin.Stats())
				}
				lendable := mode == "write-through" || mode == "extent parts"
				for i, pt := range parts {
					adopted := pt.Blk >= extentBlocks
					got := pt.Buf
					if views[i] != nil {
						got = views[i]
					}
					if (views[i] != nil) != (lendable && adopted) {
						t.Fatalf("block %d: lent %v, want %v", pt.Blk, views[i] != nil, lendable && adopted)
					}
					if views[i] != nil && &views[i][0] != &img[(pt.Blk-extentBlocks)*BlockSize] {
						t.Fatalf("block %d is lent but not a view of the adopted extent", pt.Blk)
					}
					if !bytes.Equal(got, want[pt.Blk*BlockSize:][:len(got)]) {
						t.Fatalf("block %d reads wrong", pt.Blk)
					}
				}
			})
		})
	}
}

// TestKeptPartTakesItsWholeExtents: a kept part at an unaligned block, a
// staging line's partial segment, spanning four chunks: the disk takes the
// two extents it covers whole by reference, though no chunk of the write is
// aligned, and copies the two it covers in part; the write costs, counts and
// reads back as WriteBlocks of the same bytes on a twin. A second kept part
// reaching into the last extent the first one copied leaves it copied.
func TestKeptPartTakesItsWholeExtents(t *testing.T) {
	const x = extentBlocks
	const blk, nb = 5, 3*x + 7 // blocks [5, 60): extents 1 and 2 whole, 0 and 3 in part
	k := sim.NewKernel()
	d, twin := NewDisk(k, RZ57, 6*x, nil), NewDisk(k, RZ57, 6*x, nil)
	line := make([]byte, 5*x*BlockSize) // the part's bytes sit at their line offset
	for i := range line {
		line[i] = byte(i/BlockSize + 1)
	}
	part := line[blk*BlockSize : (blk+nb)*BlockSize]
	next := line[(blk+nb)*BlockSize : (blk+nb+x)*BlockSize] // blocks [60, 76)
	k.RunProc(func(p *sim.Proc) {
		t0 := p.Now()
		if err := d.WriteParts(p, []Part{{Blk: blk, Buf: part, Keep: true}}); err != nil {
			t.Fatal(err)
		}
		kept := p.Now() - t0
		t0 = p.Now()
		if err := twin.WriteBlocks(p, blk, part); err != nil {
			t.Fatal(err)
		}
		if kept != p.Now()-t0 || d.Stats() != twin.Stats() {
			t.Fatalf("kept write cost %v and %+v, WriteBlocks %v and %+v", kept, d.Stats(), p.Now()-t0, twin.Stats())
		}
		for e := int64(0); e < 4; e++ {
			whole := e == 1 || e == 2
			if d.store.shared[e] != whole {
				t.Fatalf("extent %d: taken %v, want %v", e, d.store.shared[e], whole)
			}
			if whole && d.store.ext[e] != (*[maxTransfer]byte)(line[e*x*BlockSize:]) {
				t.Fatalf("extent %d is taken but is not the part's own bytes", e)
			}
		}
		if err := d.WriteParts(p, []Part{{Blk: blk + nb, Buf: next, Keep: true}}); err != nil {
			t.Fatal(err)
		}
		if err := twin.WriteBlocks(p, blk+nb, next); err != nil {
			t.Fatal(err)
		}
		if d.store.shared[3] || d.store.shared[4] {
			t.Fatal("a part covering extents 3 and 4 in part took one")
		}
		if err := sameStore(durable(d), durable(twin)); err != nil {
			t.Fatalf("the disk that kept holds other blocks than the one that copied: %v", err)
		}
		got, want := make([]byte, 6*x*BlockSize), make([]byte, 6*x*BlockSize)
		if err := d.ReadBlocks(p, 0, got); err != nil {
			t.Fatal(err)
		}
		if err := twin.ReadBlocks(p, 0, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("the disk that kept reads back other bytes than the one that copied")
		}
	})
}

// TestPendingXorIsCountedThroughItsSources: a kept XOR part of one whole
// extent over three lanes the disk has adopted holds no memory of its own —
// Resident counts it through its sources, which the adopted extents are
// already — until a read computes it into an extent of ours; over lanes held
// nowhere else, each is counted once.
func TestPendingXorIsCountedThroughItsSources(t *testing.T) {
	const x = extentBlocks
	k := sim.NewKernel()
	d, other := NewDisk(k, RZ57, 8*x, nil), NewDisk(k, RZ57, 8*x, nil)
	line := make([]byte, 3*maxTransfer)
	for i := range line {
		line[i] = byte(i*7 + i>>12)
	}
	lanes := [][]byte{line[:maxTransfer], line[maxTransfer : 2*maxTransfer], line[2*maxTransfer:]}
	k.RunProc(func(p *sim.Proc) {
		if err := d.AdoptBlocks(p, 0, line); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteParts(p, []Part{{Blk: 3 * x, Buf: make([]byte, maxTransfer), Keep: true, XorOf: &lanes}}); err != nil {
			t.Fatal(err)
		}
		if len(d.store.pending) != 1 {
			t.Fatalf("%d extents pending, want 1", len(d.store.pending))
		}
		if got := d.Resident(Resident{}); got != 3*maxTransfer {
			t.Errorf("three adopted lanes and their pending XOR: %d bytes resident, want %d", got, 3*maxTransfer)
		}
		if err := other.WriteParts(p, []Part{{Blk: 0, Buf: make([]byte, maxTransfer), Keep: true, XorOf: &lanes}}); err != nil {
			t.Fatal(err)
		}
		if got := other.Resident(Resident{}); got != 3*maxTransfer {
			t.Errorf("a pending XOR of three lanes held nowhere else: %d bytes resident, want %d", got, 3*maxTransfer)
		}
		got := make([]byte, maxTransfer)
		if err := d.ReadBlocks(p, 3*x, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, xorAll(maxTransfer, lanes)) {
			t.Fatal("the pending extent does not read as the XOR of its lanes")
		}
		if len(d.store.pending) != 0 || d.store.ext[3] == nil || d.store.shared[3] {
			t.Fatal("a read left the extent pending or not ours")
		}
		if got := d.Resident(Resident{}); got != 4*maxTransfer {
			t.Errorf("after the read computed it: %d bytes resident, want %d", got, 4*maxTransfer)
		}
	})
}

// TestXorPartUnderCacheOrWatchIsComputedAtWrite: a disk with a write cache,
// or one whose Cut falls inside every piece ("hooked"), computes a kept XOR
// part when it is written and keeps neither the list nor its sources, as it
// copies every kept part; the cut at each block finds the block already
// holding the XOR.
func TestXorPartUnderCacheOrWatchIsComputedAtWrite(t *testing.T) {
	const x = extentBlocks
	for _, mode := range []string{"write cache", "hooked"} {
		t.Run(mode, func(t *testing.T) {
			k := sim.NewKernel()
			d := NewDisk(k, RZ57, 4*x, nil)
			srcs := make([][]byte, 3)
			for i := range srcs {
				srcs[i] = bytes.Repeat([]byte{byte(1 << i)}, 2*maxTransfer)
			}
			want := xorAll(2*maxTransfer, srcs)
			switch mode {
			case "write cache":
				d.EnableWriteCache(4)
			case "hooked":
				var events []string
				d.Cut = cutEvery(k, &events)
				at := d.Cut.At
				d.Cut.At = func() {
					blk := x + d.Cut.N - 1
					i := (blk - x) * BlockSize
					if got := durable(d)[blk]; !bytes.Equal(got, want[i:i+BlockSize]) {
						t.Fatalf("block %d does not hold the XOR when the cut falls at it", blk)
					}
					at()
				}
			}
			k.RunProc(func(p *sim.Proc) {
				if err := d.WriteParts(p, []Part{{Blk: x, Buf: make([]byte, 2*maxTransfer), Keep: true, XorOf: &srcs}}); err != nil {
					t.Fatal(err)
				}
				if len(d.store.pending) != 0 {
					t.Fatalf("%d extents pending, want none", len(d.store.pending))
				}
				for _, src := range srcs {
					clear(src) // against the contract: shows whether the disk kept them
				}
				srcs = nil // and the list
				if err := d.Flush(p); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, 2*maxTransfer)
				if err := d.ReadBlocks(p, x, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("the disk reads other than the XOR computed at the write")
				}
			})
			if mode == "hooked" && d.Cut.N != 2*x {
				t.Errorf("%d media events, want %d", d.Cut.N, 2*x)
			}
		})
	}
}

// BenchmarkStageLine1MB is a staging line's turn in `make bench-layers`: a
// 1 MB line image written in partial segments of 40 blocks at their line
// offsets, each kept (as lfs.FS.Migratev writes them), then read back into
// the same image with ShareBlocks for the changer to keep (the copy-out). The
// disk takes the whole extents of each partial segment as it is written and
// copies its ends, and the read copies only those ends. B/op is the line's
// image, one per line.
func BenchmarkStageLine1MB(b *testing.B) {
	const line, pseg = 256, 40
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 4*line, nil)
	b.ReportAllocs()
	b.SetBytes(line * BlockSize)
	k.RunProc(func(p *sim.Proc) {
		stage := func(blk int64) {
			img := make([]byte, line*BlockSize)
			for off := int64(0); off < line; off += pseg {
				end := min(off+pseg, line)
				if err := d.WriteParts(p, []Part{{Blk: blk + off, Buf: img[off*BlockSize : end*BlockSize], Keep: true}}); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.ShareBlocks(p, blk, img); err != nil {
				b.Fatal(err)
			}
		}
		for i := int64(0); i < 4; i++ {
			stage(i * line) // first touch of the four lines
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stage(int64(i%4) * line)
		}
	})
}
