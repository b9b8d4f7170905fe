package dev

import (
	"crypto/subtle"
	"math/bits"
)

// extentBlocks: an extent is one maxTransfer chunk, the unit a disk is driven in.
const extentBlocks = maxTransfer / BlockSize

// media is a platter's contents: a table of maxTransfer-byte extents, each
// allocated on its first write, with one written-bit per block. A block that
// was never written reads as zeroes (its extent is absent, or still zero
// there) and appears in no snapshot or image. A shared extent is bytes we do
// not own and that never change — an image a kept write took (a fetched
// medium's, a staged line's), or a reader's buffer a share took — until the
// first write into it copies them. A pending extent is absent with blocks
// written: a kept XOR part took it (Part.XorOf), and it reads as the XOR of
// its sources, computed into an extent of ours when something first reads
// it, copies a write into it or discards part of it.
// The extents of ours that any of these displaces wait in spare for the next
// first write or copy, so a disk that shares lines owns no more extents than
// one that copies them.
type media struct {
	ext     []*[maxTransfer]byte
	written []uint16 // bit i of written[e]: block e*extentBlocks+i was written
	shared  []bool   // ext[e] is not ours to write
	spare   []*[maxTransfer]byte
	pending map[int64]xorSrc // what each pending extent reads as
}

// xorSrc is a pending extent's bytes: the XOR of the maxTransfer bytes at off
// in each of srcs.
type xorSrc struct {
	srcs [][]byte
	off  int
}

func newMedia(nblocks int64) media {
	n := (nblocks + extentBlocks - 1) / extentBlocks
	return media{ext: make([]*[maxTransfer]byte, n), written: make([]uint16, n), shared: make([]bool, n)}
}

// write stores data from block blk on, one copy per extent it touches, marks
// every block it reaches as written and reports whether any already was.
func (m *media) write(blk int64, data []byte) (rewrote bool) {
	for len(data) > 0 {
		e, i := blk/extentBlocks, int(blk%extentBlocks)
		n := min(maxTransfer-i*BlockSize, len(data))
		if m.ext[e] == nil || m.shared[e] {
			m.own(e)
		}
		copy(m.ext[e][i*BlockSize:], data[:n])
		nb := (n + BlockSize - 1) / BlockSize
		mask := (uint16(1)<<nb - 1) << i
		rewrote = rewrote || m.written[e]&mask != 0
		m.written[e] |= mask
		blk, data = blk+int64(nb), data[n:]
	}
	return rewrote
}

// own puts an extent of ours in place of ext[e], holding what ext[e] reads as
// now (zeroes when absent, the adopted bytes when shared, the XOR of its
// sources when pending): a spare one if there is any, else a new one.
func (m *media) own(e int64) {
	var x *[maxTransfer]byte
	src, pending := m.pending[e]
	switch n := len(m.spare); {
	case n == 0:
		x = new([maxTransfer]byte)
	case m.ext[e] == nil && !pending:
		x, m.spare = m.spare[n-1], m.spare[:n-1]
		clear(x[:])
	default:
		x, m.spare = m.spare[n-1], m.spare[:n-1]
	}
	if m.ext[e] != nil {
		*x = *m.ext[e]
	} else if pending {
		xorOf(x[:], src.srcs, src.off)
		delete(m.pending, e)
	}
	m.ext[e], m.shared[e] = x, false
}

// keep stores data, the blocks from blk on, like write, where data is a piece
// of part, a kept write whose bytes must never change afterwards. Each extent
// the part covers whole is taken, all of it, when a piece reaching it is
// stored (the first; a later one takes it again, the same): by reference, or,
// where the part is an XOR (XorOf), as its sources, pending. The extents the
// part covers in part are copied, an XOR computed into data first.
func (m *media) keep(part Part, blk int64, data []byte) {
	pend := part.Blk + int64(len(part.Buf)/BlockSize)
	for len(data) > 0 {
		e, i := blk/extentBlocks, int(blk%extentBlocks)
		n := min(maxTransfer-i*BlockSize, len(data))
		if s := e * extentBlocks; s >= part.Blk && s+extentBlocks <= pend {
			if part.XorOf != nil {
				m.pend(e, xorSrc{*part.XorOf, int(s-part.Blk) * BlockSize})
			} else {
				m.take(e, part.Buf[(s-part.Blk)*BlockSize:][:maxTransfer])
			}
			m.written[e] = 1<<extentBlocks - 1
		} else {
			if part.XorOf != nil {
				xorOf(data[:n], *part.XorOf, int(blk-part.Blk)*BlockSize)
			}
			m.write(blk, data[:n])
		}
		blk, data = blk+int64(n/BlockSize), data[n:]
	}
}

// share takes data, just read from block blk on, in place of the extent it
// was read from when that is one whole, aligned extent of ours; data must
// never change afterwards. Absent and already shared extents stay as they
// are, and no written bit changes: the disk reads and saves as before.
func (m *media) share(blk int64, data []byte) {
	if e := blk / extentBlocks; blk%extentBlocks == 0 && len(data) == maxTransfer && m.ext[e] != nil && !m.shared[e] {
		m.take(e, data)
	}
}

// take points ext[e] at data, one extent's worth that never changes. An
// extent that is data already stays as it is.
func (m *media) take(e int64, data []byte) {
	x := (*[maxTransfer]byte)(data)
	if m.ext[e] == x {
		return
	}
	m.displace(e)
	m.ext[e], m.shared[e] = x, true
}

// pend makes ext[e] pending, reading as src's XOR.
func (m *media) pend(e int64, src xorSrc) {
	m.displace(e)
	if m.pending == nil {
		m.pending = make(map[int64]xorSrc)
	}
	m.pending[e] = src
}

// displace empties ext[e], putting the extent of ours there on spare.
func (m *media) displace(e int64) {
	if m.ext[e] != nil && !m.shared[e] {
		m.spare = append(m.spare, m.ext[e])
	}
	m.ext[e], m.shared[e] = nil, false
	delete(m.pending, e)
}

// xorOf sets dst to the XOR of the len(dst) bytes at off in each of srcs
// (zeroes when there are none): the bytes of a part with XorOf, computed at
// its write or, pending, when they are first needed.
func xorOf(dst []byte, srcs [][]byte, off int) {
	end := off + len(dst)
	switch len(srcs) {
	case 0:
		clear(dst)
	case 1:
		copy(dst, srcs[0][off:end])
	default:
		subtle.XORBytes(dst, srcs[0][off:end], srcs[1][off:end])
		for _, src := range srcs[2:] {
			subtle.XORBytes(dst, dst, src[off:end])
		}
	}
}

// lend returns a read-only view of block blk when its extent is shared (it
// never changes), else nil: the caller reads an extent of ours with read.
func (m *media) lend(blk int64) []byte {
	e, off := blk/extentBlocks, int(blk%extentBlocks)*BlockSize
	if !m.shared[e] {
		return nil
	}
	return m.ext[e][off : off+BlockSize : off+BlockSize]
}

// read fills buf, a whole number of blocks, with the blocks from blk on. Where
// buf is the very extent it reads (a kept image read back into itself) it
// copies nothing.
func (m *media) read(blk int64, buf []byte) {
	for len(buf) > 0 {
		off := int(blk%extentBlocks) * BlockSize
		n := min(maxTransfer-off, len(buf))
		e := blk / extentBlocks
		if m.ext[e] == nil && m.written[e] != 0 { // pending: its XOR is needed now
			m.own(e)
		}
		if x := m.ext[e]; x != nil {
			if &x[off] != &buf[0] {
				copy(buf[:n], x[off:])
			}
		} else {
			clear(buf[:n])
		}
		blk, buf = blk+int64(n/BlockSize), buf[n:]
	}
}

// each calls f on every written block, in ascending order; a pending extent's
// XOR goes to scratch and the extent stays pending. SaveStore walks twice, so
// XORs a pending extent twice: snapshots meet none in the measured workloads.
func (m *media) each(f func(blk int64, data []byte)) {
	var scratch *[maxTransfer]byte
	for e, w := range m.written {
		x := m.ext[e]
		if x == nil && w != 0 {
			if scratch == nil {
				scratch = new([maxTransfer]byte)
			}
			src := m.pending[int64(e)]
			xorOf(scratch[:], src.srcs, src.off)
			x = scratch
		}
		for ; w != 0; w &= w - 1 {
			i := bits.TrailingZeros16(w)
			f(int64(e)*extentBlocks+int64(i), x[i*BlockSize:(i+1)*BlockSize])
		}
	}
}

// discard forgets the n blocks from blk on: each reads as zeroes afterwards
// and leaves every snapshot, as if never written. An extent left with no
// written block is dropped for the collector, not kept on spare; one left
// with some is ours (a shared one is copied first, never written into, and a
// pending one computed) with the forgotten blocks zeroed.
func (m *media) discard(blk, n int64) {
	for end := blk + n; blk < end; {
		e, i := blk/extentBlocks, int(blk%extentBlocks)
		nb := int(min(end-blk, extentBlocks-int64(i)))
		mask := (uint16(1)<<nb - 1) << i
		switch {
		case m.written[e]&^mask == 0:
			m.ext[e], m.shared[e], m.written[e] = nil, false, 0
			delete(m.pending, e)
		case m.written[e]&mask != 0:
			if m.ext[e] == nil || m.shared[e] {
				m.own(e)
			}
			clear(m.ext[e][i*BlockSize : (i+nb)*BlockSize])
			m.written[e] &^= mask
		}
		blk += int64(nb)
	}
}

// held is Disk.Resident over every extent the media hold, spare ones too,
// and a pending extent as its sources hold it.
func (m *media) held(r Resident) int64 {
	n := int64(0)
	for _, x := range m.ext {
		if x != nil {
			n += r.Add(x[:])
		}
	}
	for _, src := range m.pending {
		for _, b := range src.srcs {
			n += r.Add(b[src.off:][:maxTransfer])
		}
	}
	for _, x := range m.spare {
		n += r.Add(x[:])
	}
	return n
}

// Resident tallies the memory simulated media hold, by extent: an extent
// that several media hold (a disk's line and the changer's image it shares)
// is counted by the first to add it.
type Resident map[*byte]bool

// Add counts b, cut into maxTransfer-byte extents from its start, and
// returns the bytes of the extents r did not hold yet.
func (r Resident) Add(b []byte) int64 {
	n := int64(0)
	for ; len(b) > 0; b = b[min(len(b), maxTransfer):] {
		if !r[&b[0]] {
			r[&b[0]] = true
			n += int64(min(len(b), maxTransfer))
		}
	}
	return n
}
