package ctr

import (
	"testing"

	"ivleague/internal/config"
)

// FuzzCounterStore decodes the fuzz input into a minor width and a stream
// of Increment, Counter, Snapshot, Has, Drop, Set and Clone ops, and
// checks the packed store against the unpacked reference store op by op.
func FuzzCounterStore(f *testing.F) {
	f.Add([]byte{6, 0, 0, 0, 9, 0, 0, 0, 0, 9, 0})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{4, 0xff, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01})
	// Two hammer increments of 7-bit minor 9, whose value 2 crosses from
	// word 1 into word 2.
	f.Add([]byte{6, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := int(data[0])%config.MaxMinorBits + 1
		pos := 1
		// Each draw takes one byte, two for bounds above 256; a spent
		// input draws zeros.
		draw := func(n uint64) uint64 {
			var v uint64
			for k := 0; k < 2 && pos < len(data) && (k == 0 || n > 256); k++ {
				v = v<<8 | uint64(data[pos])
				pos++
			}
			return v % n
		}
		checkAgainstReference(t, w, func() bool { return pos < len(data) }, draw)
	})
}
