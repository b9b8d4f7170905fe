package dev

import "math/bits"

// extentBlocks: an extent is one maxTransfer chunk, the unit a disk is driven in.
const extentBlocks = maxTransfer / BlockSize

// media is a platter's contents: a table of maxTransfer-byte extents, each
// allocated on its first write, with one written-bit per block. A block that
// was never written reads as zeroes (its extent is absent, or still zero
// there) and appears in no snapshot or image. A shared extent is bytes we do
// not own and that never change — another medium's image an adoption took, or
// a reader's buffer a share took — until the first write into it copies them.
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

// adopt stores data from block blk on like write, but takes it by reference
// when it is one whole, aligned extent; data must never change afterwards.
func (m *media) adopt(blk int64, data []byte) {
	if e := blk / extentBlocks; blk%extentBlocks == 0 && len(data) == maxTransfer {
		m.take(e, data)
		m.written[e] = 1<<extentBlocks - 1
		return
	}
	m.write(blk, data)
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
// the extent of ours it displaces on spare.
func (m *media) take(e int64, data []byte) {
	if m.ext[e] != nil && !m.shared[e] {
		m.spare = append(m.spare, m.ext[e])
	}
	m.ext[e], m.shared[e] = (*[maxTransfer]byte)(data), true
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

// read fills buf, a whole number of blocks, with the blocks from blk on.
func (m *media) read(blk int64, buf []byte) {
	for len(buf) > 0 {
		off := int(blk%extentBlocks) * BlockSize
		n := min(maxTransfer-off, len(buf))
		if x := m.ext[blk/extentBlocks]; x != nil {
			copy(buf[:n], x[off:])
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
