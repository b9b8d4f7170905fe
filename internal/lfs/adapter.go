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

// ReadParts implements Device.
func (d DiskDevice) ReadParts(p *sim.Proc, parts []dev.Part) error {
	return d.BD.ReadParts(p, parts)
}
