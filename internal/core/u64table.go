package core

import (
	"math/bits"
	"slices"
)

// u64table is an open-addressed uint64 → uint64 hash table: linear probing
// over a power-of-two cell array, with backward-shift deletion so no
// tombstones accumulate. It doubles when a set would take it past half
// load, so it allocates only when its population reaches a new high, and
// set/del churn at a steady population allocates nothing.
//
// noKey marks an empty cell. Both users, the hot tracker and the τhot
// page table, key it by PFN, which never reaches the all-ones value.
type u64table struct {
	cells []u64cell
	shift uint // 64 - log2(len(cells)): the home cell is the hash's top bits
	n     int  // keys stored
}

type u64cell struct {
	key, val uint64
}

// noKey marks an empty u64table cell.
const noKey = ^uint64(0)

// minTableCells is the smallest cell array a table starts with.
const minTableCells = 8

// newU64Table returns a table that holds keys entries without growing.
func newU64Table(keys int) u64table {
	cells := minTableCells
	for cells < 2*keys {
		cells <<= 1
	}
	var t u64table
	t.alloc(cells)
	return t
}

// alloc installs an empty array of cells cells (a power of two).
func (t *u64table) alloc(cells int) {
	t.cells = make([]u64cell, cells)
	for i := range t.cells {
		t.cells[i].key = noKey
	}
	t.shift = 64 - uint(bits.TrailingZeros(uint(cells)))
}

// home returns key's preferred cell (Fibonacci hashing: sequential keys,
// such as neighbouring PFNs, land far apart).
func (t *u64table) home(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> t.shift
}

// slot returns the cell holding key, or the empty cell that ends its probe
// sequence.
func (t *u64table) slot(key uint64) (uint64, bool) {
	mask := uint64(len(t.cells) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.cells[i].key {
		case key:
			return i, true
		case noKey:
			return i, false
		}
	}
}

// get returns key's value, if present.
func (t *u64table) get(key uint64) (uint64, bool) {
	if i, ok := t.slot(key); ok {
		return t.cells[i].val, true
	}
	return 0, false
}

// set maps key to val, inserting key if absent.
func (t *u64table) set(key, val uint64) {
	i, ok := t.slot(key)
	if !ok {
		if 2*(t.n+1) > len(t.cells) {
			t.grow()
			i, _ = t.slot(key)
		}
		t.cells[i].key = key
		t.n++
	}
	t.cells[i].val = val
}

// grow doubles the cell array and re-inserts every key.
func (t *u64table) grow() {
	old := t.cells
	t.alloc(2 * len(old))
	for _, c := range old {
		if c.key != noKey {
			i, _ := t.slot(c.key)
			t.cells[i] = c
		}
	}
}

// del removes key, if present. The cells after it in its probe run shift
// back over the hole whenever their home allows, so every remaining key
// stays reachable from its home without a tombstone.
func (t *u64table) del(key uint64) {
	i, ok := t.slot(key)
	if !ok {
		return
	}
	mask := uint64(len(t.cells) - 1)
	for j := (i + 1) & mask; t.cells[j].key != noKey; j = (j + 1) & mask {
		// The key in cell j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-t.home(t.cells[j].key))&mask >= (j-i)&mask {
			t.cells[i] = t.cells[j]
			i = j
		}
	}
	t.cells[i].key = noKey
	t.n--
}

// sortedKeys returns the stored keys in ascending order.
func (t *u64table) sortedKeys() []uint64 {
	keys := make([]uint64, 0, t.n)
	for _, c := range t.cells {
		if c.key != noKey {
			keys = append(keys, c.key)
		}
	}
	slices.Sort(keys)
	return keys
}
