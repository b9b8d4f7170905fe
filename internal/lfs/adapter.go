package lfs

import (
	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/sim"
)

// DiskDevice adapts a plain block device (a disk or a farm of disks) to the
// Device interface for base-LFS use: every block address must fall in the
// disk region of the address map.
type DiskDevice struct {
	BD dev.Vectored
}

var _ Device = DiskDevice{}

// ReadBlocks implements Device.
func (d DiskDevice) ReadBlocks(p *sim.Proc, b addr.BlockNo, buf []byte) error {
	return d.BD.ReadBlocks(p, int64(b), buf)
}

// WriteBlocks implements Device.
func (d DiskDevice) WriteBlocks(p *sim.Proc, b addr.BlockNo, buf []byte) error {
	return d.BD.WriteBlocks(p, int64(b), buf)
}

// KeepBlocks implements Device: WriteParts of buf alone, kept.
func (d DiskDevice) KeepBlocks(p *sim.Proc, b addr.BlockNo, buf []byte) error {
	return d.BD.WriteParts(p, []dev.Part{{Blk: int64(b), Buf: buf, Keep: true}})
}

// Discard implements Discarder when BD is a dev.Discarder.
func (d DiskDevice) Discard(b addr.BlockNo, n int) {
	if dc, ok := d.BD.(dev.Discarder); ok {
		dc.Discard(int64(b), int64(n))
	}
}

// ReadParts implements Device.
func (d DiskDevice) ReadParts(p *sim.Proc, parts []dev.Part) error {
	return d.BD.ReadParts(p, parts)
}
