package lfs

// RetiredBit is segRetired, for the old-image test.
const RetiredBit = segRetired

// SetRetiredBit sets segRetired on tertiary segment idx, as an image of the
// older format would carry it.
func (fs *FS) SetRetiredBit(idx int) { fs.tseg[idx].Flags |= segRetired }

// MountedTsegFlags decodes every tertiary segment entry's flags from the
// table region the mount read, as the media held them.
func (fs *FS) MountedTsegFlags() []uint32 {
	buf := fs.regionImage[fs.recovery.Region]
	off := BlockSize + blocksFor(len(fs.seguse)*seguseSize)*BlockSize
	flags := make([]uint32, len(fs.tseg))
	for i := range flags {
		var su Seguse
		su.decode(buf[off+i*seguseSize:])
		flags[i] = su.Flags
	}
	return flags
}
