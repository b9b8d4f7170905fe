package jukebox

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/dev"
)

const imageMagic = 0x484a424b // "HJBK"

// ErrBadImage: LoadStore's stream is not a whole SaveStore image of this geometry.
var ErrBadImage = errors.New("jukebox: bad media image")

// SaveStore writes every volume's contents (sparse, segments in ascending
// order, so equal contents give equal images) to a stream so the cmd/hlfs
// tool can persist a jukebox across runs.
func (j *Jukebox) SaveStore(w io.Writer) error {
	le := binary.LittleEndian
	bw := bufio.NewWriter(w) // its first write error sticks, and Flush returns it
	var hdr [16]byte
	le.PutUint32(hdr[0:], imageMagic)
	le.PutUint32(hdr[4:], uint32(len(j.vols)))
	le.PutUint32(hdr[8:], uint32(j.segBytes))
	bw.Write(hdr[:])
	for _, v := range j.vols {
		count, flags := 0, uint32(0)
		for _, data := range v.store {
			if data != nil {
				count++
			}
		}
		if v.full {
			flags = 1
		}
		le.PutUint32(hdr[0:], uint32(v.actualSegs))
		le.PutUint32(hdr[4:], flags)
		le.PutUint64(hdr[8:], uint64(count))
		bw.Write(hdr[:])
		for seg, data := range v.store {
			if data != nil {
				bw.Write(le.AppendUint32(hdr[:0], uint32(seg)))
				bw.Write(data)
			}
		}
	}
	return bw.Flush()
}

// Resident adds the segment images the jukebox's volumes hold to r and
// returns the bytes that r did not hold yet: an image two libraries share is
// counted by the first.
func (j *Jukebox) Resident(r dev.Resident) int64 {
	n := int64(0)
	for _, v := range j.vols {
		for _, data := range v.store {
			if data != nil {
				n += r.Add(data)
			}
		}
	}
	return n
}

// LoadStore replaces the jukebox's media contents from a SaveStore stream
// and unloads every drive: the jukebox as it comes back after a power cut.
// A stream that is short, of another geometry, or names a segment outside
// its volume or twice is ErrBadImage with the offset reached.
func (j *Jukebox) LoadStore(r io.Reader) error {
	le := binary.LittleEndian
	br, off := bufio.NewReader(r), 0
	read := func(b []byte) bool {
		n, err := io.ReadFull(br, b)
		off += n
		return err == nil
	}
	bad := func(format string, a ...any) error {
		return fmt.Errorf("%w at offset %d: %s", ErrBadImage, off, fmt.Sprintf(format, a...))
	}
	var hdr [16]byte
	switch {
	case !read(hdr[:]):
		return bad("short header")
	case le.Uint32(hdr[0:]) != imageMagic || int(le.Uint32(hdr[4:])) != len(j.vols) || int(le.Uint32(hdr[8:])) != j.segBytes:
		return bad("magic %#x, %d volumes of %d-byte segments; device has %d of %d", le.Uint32(hdr[0:]), le.Uint32(hdr[4:]), le.Uint32(hdr[8:]), len(j.vols), j.segBytes)
	}
	for _, v := range j.vols {
		if !read(hdr[:]) {
			return bad("short volume header")
		}
		count := le.Uint64(hdr[8:])
		if count > uint64(v.nominalSegs) {
			return bad("%d records for %d segments", count, v.nominalSegs)
		}
		store := make([][]byte, v.nominalSegs)
		for ; count > 0; count-- {
			var rec [4]byte
			if !read(rec[:]) {
				return bad("short record")
			}
			seg := int(le.Uint32(rec[:]))
			if seg >= v.nominalSegs || store[seg] != nil {
				return bad("segment %d out of range or repeated", seg)
			}
			store[seg] = make([]byte, j.segBytes)
			if !read(store[seg]) {
				return bad("short segment %d", seg)
			}
		}
		v.actualSegs, v.full, v.store = int(le.Uint32(hdr[0:])), le.Uint32(hdr[4:]) == 1, store
	}
	for _, d := range j.drives {
		d.loaded, d.pos = -1, 0
	}
	return nil
}
