package dev

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Image persistence: a disk's sparse backing store can be saved to and
// loaded from a stream, so the cmd/hlfs tool can operate on file system
// images across process runs (the simulation state is genuinely on "media").

const imageMagic = 0x48494d47 // "HIMG"

// ErrBadImage: LoadStore's stream is not a whole SaveStore image of a disk this size.
var ErrBadImage = errors.New("dev: bad disk image")

// SaveStore writes the disk's contents (sparse: only written blocks, in
// ascending order, so equal contents give equal images).
func (d *Disk) SaveStore(w io.Writer) error {
	bw := bufio.NewWriter(w) // its first write error sticks, and Flush returns it
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], imageMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(d.nblocks))
	count := uint64(0)
	d.store.each(func(int64, []byte) { count++ })
	binary.LittleEndian.PutUint64(hdr[12:], count)
	bw.Write(hdr[:])
	d.store.each(func(blk int64, data []byte) {
		bw.Write(binary.LittleEndian.AppendUint64(hdr[:0], uint64(blk)))
		bw.Write(data)
	})
	return bw.Flush()
}

// LoadStore replaces the disk's contents from a stream written by
// SaveStore, empties the volatile write cache and parks the arm at block 0:
// the disk as it comes back after a power cut. The spare extents of the old
// contents (media) go with them. Any other stream — of another disk size,
// short, a block out of range or twice — is ErrBadImage with the offset and
// leaves the disk as it was.
func (d *Disk) LoadStore(r io.Reader) error {
	br := bufio.NewReader(r)
	var hdr [20]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%w: header: %v", ErrBadImage, err)
	}
	magic, n, count := binary.LittleEndian.Uint32(hdr[0:]), binary.LittleEndian.Uint64(hdr[4:]), binary.LittleEndian.Uint64(hdr[12:])
	if magic != imageMagic || n != uint64(d.nblocks) || count > n {
		return fmt.Errorf("%w: magic %#x, %d records of a %d-block disk; this disk has %d blocks", ErrBadImage, magic, count, n, d.nblocks)
	}
	m := newMedia(d.nblocks)
	var rec [8 + BlockSize]byte
	for i := uint64(0); i < count; i++ {
		off := uint64(len(hdr)) + i*uint64(len(rec))
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return fmt.Errorf("%w: record %d at offset %d: %v", ErrBadImage, i, off, err)
		}
		blk := binary.LittleEndian.Uint64(rec[:])
		if blk >= uint64(d.nblocks) || m.write(int64(blk), rec[8:]) {
			return fmt.Errorf("%w: record %d at offset %d: block %d out of range or repeated", ErrBadImage, i, off, blk)
		}
	}
	d.store, d.head = m, 0
	clear(d.wdirty)
	d.worder = d.worder[:0]
	return nil
}
