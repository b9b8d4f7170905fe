package dev

import (
	"fmt"
	"hash/crc32"
)

// HandOvers audits the bytes handed over by reference: every buffer a device
// or a farm keeps or lends on the promise that nobody changes it again (a
// kept write's extent, a shared read's, a pending XOR's sources, a lent view)
// is recorded with a CRC-32C of each of its blocks, and Check hashes them all
// again. It is for tests: Audit is nil, and Record does nothing, unless a
// test sets it, and it keeps every buffer it records alive.
type HandOvers struct {
	bufs  map[handOverKey]int // index in list
	list  []handOver
	table *crc32.Table
}

// Audit is the hand-over audit of the process, nil when it is off.
var Audit *HandOvers

type handOverKey struct {
	p *byte
	n int
}

type handOver struct {
	site string // who handed the bytes over
	b    []byte
	sums []uint32 // CRC-32C of each block of b when it was handed over
}

// Record notes that b, handed over at site, must never change. A buffer
// recorded already, at the same address and length, keeps its first record.
func (h *HandOvers) Record(site string, b []byte) {
	if h == nil || len(b) == 0 {
		return
	}
	k := handOverKey{&b[0], len(b)}
	if _, ok := h.bufs[k]; ok {
		return
	}
	if h.bufs == nil {
		h.bufs, h.table = make(map[handOverKey]int), crc32.MakeTable(crc32.Castagnoli)
	}
	h.bufs[k] = len(h.list)
	h.list = append(h.list, handOver{site: site, b: b, sums: h.sums(b, nil)})
}

// sums appends the CRC-32C of each block of b to dst.
func (h *HandOvers) sums(b []byte, dst []uint32) []uint32 {
	for ; len(b) > 0; b = b[min(len(b), BlockSize):] {
		dst = append(dst, crc32.Checksum(b[:min(len(b), BlockSize)], h.table))
	}
	return dst
}

// Check hashes every recorded buffer again and reports the first, in the
// order they were recorded, that changed: the site that handed it over and
// its first block that differs.
func (h *HandOvers) Check() error {
	if h == nil {
		return nil
	}
	var now []uint32
	for _, r := range h.list {
		now = h.sums(r.b, now[:0])
		for i := range now {
			if now[i] != r.sums[i] {
				return fmt.Errorf("dev: %d bytes handed over by %s changed after the hand-over, block %d of %d first",
					len(r.b), r.site, i, len(now))
			}
		}
	}
	return nil
}
