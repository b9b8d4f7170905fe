package dev

import "math/bits"

// extentBlocks: an extent is one maxTransfer chunk, the unit a disk is driven in.
const extentBlocks = maxTransfer / BlockSize

// media is a platter's contents: a table of maxTransfer-byte extents, each
// allocated on its first write, with one written-bit per block. A block that
// was never written reads as zeroes (its extent is absent, or still zero
// there) and appears in no snapshot or image. A shared extent is bytes we do
// not own and that never change — an image a kept write took (a fetched
// medium's, a staged line's), or a reader's buffer a share took — until the
// first write into it copies them.
// The extents of ours that either displaces wait in spare for the next first
// write or copy, so a disk that shares lines owns no more extents than one
// that copies them.
type media struct {
	ext     []*[maxTransfer]byte
	written []uint16 // bit i of written[e]: block e*extentBlocks+i was written
	shared  []bool   // ext[e] is not ours to write
	spare   []*[maxTransfer]byte
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
// now (zeroes when absent, the adopted bytes when shared): a spare one if
// there is any, else a new one.
func (m *media) own(e int64) {
	var x *[maxTransfer]byte
	switch n := len(m.spare); {
	case n == 0:
		x = new([maxTransfer]byte)
	case m.ext[e] == nil:
		x, m.spare = m.spare[n-1], m.spare[:n-1]
		clear(x[:])
	default:
		x, m.spare = m.spare[n-1], m.spare[:n-1]
	}
	if m.ext[e] != nil {
		*x = *m.ext[e]
	}
	m.ext[e], m.shared[e] = x, false
}

// keep stores data, the blocks from blk on, like write, where data is a piece
// of part, a kept buffer holding the blocks from pblk on that must never change
// afterwards. Each extent the part covers whole is taken by reference, all of
// it, when the first piece reaching it is stored (a later piece finds it taken
// and stores nothing); the extents the part covers in part are copied.
func (m *media) keep(pblk int64, part []byte, blk int64, data []byte) {
	pend := pblk + int64(len(part)/BlockSize)
	for len(data) > 0 {
		e, i := blk/extentBlocks, int(blk%extentBlocks)
		n := min(maxTransfer-i*BlockSize, len(data))
		if s := e * extentBlocks; s >= pblk && s+extentBlocks <= pend {
			m.take(e, part[(s-pblk)*BlockSize:][:maxTransfer])
			m.written[e] = 1<<extentBlocks - 1
		} else {
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

// take points ext[e] at data, one extent's worth that never changes, and puts
// the extent of ours it displaces on spare. An extent that is data already
// stays as it is.
func (m *media) take(e int64, data []byte) {
	x := (*[maxTransfer]byte)(data)
	if m.ext[e] == x {
		return
	}
	if m.ext[e] != nil && !m.shared[e] {
		m.spare = append(m.spare, m.ext[e])
	}
	m.ext[e], m.shared[e] = x, true
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
		if x := m.ext[blk/extentBlocks]; x != nil {
			if &x[off] != &buf[0] {
				copy(buf[:n], x[off:])
			}
		} else {
			clear(buf[:n])
		}
		blk, buf = blk+int64(n/BlockSize), buf[n:]
	}
}

// each calls f on every written block, in ascending order.
func (m *media) each(f func(blk int64, data []byte)) {
	for e, w := range m.written {
		for ; w != 0; w &= w - 1 {
			i := bits.TrailingZeros16(w)
			f(int64(e)*extentBlocks+int64(i), m.ext[e][i*BlockSize:(i+1)*BlockSize])
		}
	}
}

// discard forgets the n blocks from blk on: each reads as zeroes afterwards
// and leaves every snapshot, as if never written. An extent left with no
// written block is dropped for the collector, not kept on spare; one left
// with some is ours (a shared one is copied first, never written into) with
// the forgotten blocks zeroed.
func (m *media) discard(blk, n int64) {
	for end := blk + n; blk < end; {
		e, i := blk/extentBlocks, int(blk%extentBlocks)
		nb := int(min(end-blk, extentBlocks-int64(i)))
		mask := (uint16(1)<<nb - 1) << i
		switch {
		case m.written[e]&^mask == 0:
			m.ext[e], m.shared[e], m.written[e] = nil, false, 0
		case m.written[e]&mask != 0:
			if m.shared[e] {
				m.own(e)
			}
			clear(m.ext[e][i*BlockSize : (i+nb)*BlockSize])
			m.written[e] &^= mask
		}
		blk += int64(nb)
	}
}

// held is Disk.Resident over every extent the media hold, spare ones too.
func (m *media) held(r Resident) int64 {
	n := int64(0)
	for _, x := range m.ext {
		if x != nil {
			n += r.Add(x[:])
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
