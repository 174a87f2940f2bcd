// Package layout defines the physical address map of the simulated machine:
// the data region followed by the secure-memory metadata regions
// (encryption counters, global integrity tree, TreeLing forest, NFL blocks,
// and page tables). All schemes use static addressing inside these regions,
// as the paper requires (TreeLing nodes are statically addressed; only the
// page→node association is dynamic).
package layout

import (
	"fmt"

	"ivleague/internal/config"
)

// PFN is a physical frame number: the index of a 4 KiB frame in the data
// region. It is a distinct type so that swapping a PFN with a VPN in a
// call is a compile error, not a silent address-space corruption.
type PFN uint64

// VPN is a virtual page number within one domain's address space. See PFN
// for why it is a distinct type.
type VPN uint64

// Layout is the computed address map. All fields are in bytes unless noted.
type Layout struct {
	Arity int

	// Data region.
	DataBytes uint64
	Pages     uint64

	// Counter region: one 64-byte counter block per page.
	CounterBase uint64

	// Global tree (Baseline / StaticPartition): levels 1..GlobalLevels,
	// level 1 being the leaves and GlobalLevels the single root.
	GlobalTreeBase  uint64
	GlobalLevels    int
	globalLevelOff  []uint64 // node offset of each level within the region
	globalLevelCnt  []uint64
	globalTreeNodes uint64

	// TreeLing forest (IvLeague schemes).
	TreeLingBase     uint64
	TreeLingCount    int
	TreeLingHeight   int
	NodesPerTreeLing int
	levelOff         []int // top-down node-index offset per level (index by level, 1..H)
	levelCnt         []int
	levelOfNode      []int // node index → level, precomputed (O(1) LevelOf)

	// NFL region: per-TreeLing free-list blocks.
	NFLBase              uint64
	NFLBlocksPerTreeLing int
	NFLEntriesPerBlock   int

	// Page-table / LMM region (for charging PTE and LMM memory traffic).
	PTBase   uint64
	ptBlocks uint64

	// Top is the first byte past all regions.
	Top uint64
}

// New computes the address map for a configuration.
func New(cfg *config.Config) *Layout {
	a := cfg.SecureMem.TreeArity
	l := &Layout{
		Arity:          a,
		DataBytes:      cfg.DRAM.SizeBytes,
		Pages:          cfg.TotalPages(),
		TreeLingCount:  cfg.IvLeague.TreeLingCount,
		TreeLingHeight: cfg.IvLeague.TreeLingHeight,
	}
	l.CounterBase = l.DataBytes

	// Global tree geometry over one leaf slot per page.
	l.GlobalTreeBase = l.CounterBase + l.Pages*config.BlockBytes
	n := (l.Pages + uint64(a) - 1) / uint64(a) // leaf nodes
	l.globalLevelOff = append(l.globalLevelOff, 0, 0)
	l.globalLevelCnt = append(l.globalLevelCnt, 0, n)
	off := n
	lvl := 1
	for n > 1 {
		n = (n + uint64(a) - 1) / uint64(a)
		lvl++
		l.globalLevelOff = append(l.globalLevelOff, off)
		l.globalLevelCnt = append(l.globalLevelCnt, n)
		off += n
	}
	l.GlobalLevels = lvl
	l.globalTreeNodes = off

	// TreeLing geometry: levels 1..H, root = level H, top-down indexing.
	h := l.TreeLingHeight
	l.levelOff = make([]int, h+1)
	l.levelCnt = make([]int, h+1)
	cnt := 1
	idx := 0
	for level := h; level >= 1; level-- {
		l.levelOff[level] = idx
		l.levelCnt[level] = cnt
		idx += cnt
		cnt *= a
	}
	l.NodesPerTreeLing = idx
	l.levelOfNode = make([]int, l.NodesPerTreeLing)
	for level := 1; level <= h; level++ {
		for i := 0; i < l.levelCnt[level]; i++ {
			l.levelOfNode[l.levelOff[level]+i] = level
		}
	}

	l.TreeLingBase = l.GlobalTreeBase + l.globalTreeNodes*config.BlockBytes
	forestBytes := uint64(l.TreeLingCount) * uint64(l.NodesPerTreeLing) * config.BlockBytes

	l.NFLEntriesPerBlock = cfg.IvLeague.NFLEntriesPerBlock
	l.NFLBlocksPerTreeLing = (l.NodesPerTreeLing + l.NFLEntriesPerBlock - 1) / l.NFLEntriesPerBlock
	l.NFLBase = l.TreeLingBase + forestBytes

	nflBytes := uint64(l.TreeLingCount) * uint64(l.NFLBlocksPerTreeLing) * config.BlockBytes
	l.PTBase = l.NFLBase + nflBytes
	// Nominal page-table region: 16 bytes per page (extended PTE), rounded
	// to a power of two block count for cheap hashing.
	ptBlocks := l.Pages * 16 / config.BlockBytes
	p := uint64(1)
	for p < ptBlocks {
		p <<= 1
	}
	l.ptBlocks = p
	l.Top = l.PTBase + p*config.BlockBytes
	return l
}

// DataBlockAddr returns the physical address of data block `block` of frame
// pfn. The data region starts at address 0, one page per frame.
func DataBlockAddr(pfn PFN, block int) uint64 {
	return uint64(pfn)<<config.PageShift | uint64(block)<<config.BlockShift
}

// DataBlockOfAddr is the inverse of DataBlockAddr: it recovers the frame
// and block holding the data address addr.
func DataBlockOfAddr(addr uint64) (PFN, int) {
	return PFN(addr >> config.PageShift), int(addr>>config.BlockShift) & (config.BlocksPerPage - 1)
}

// CounterBlockAddr returns the physical address of page pfn's counter block.
func (l *Layout) CounterBlockAddr(pfn PFN) (uint64, error) {
	if uint64(pfn) >= l.Pages {
		return 0, fmt.Errorf("layout: pfn %d out of range", pfn)
	}
	return l.CounterBase + uint64(pfn)*config.BlockBytes, nil
}

// GlobalLevelCount returns the number of nodes at a global-tree level
// (1 = leaves).
func (l *Layout) GlobalLevelCount(level int) uint64 {
	return l.globalLevelCnt[level]
}

// GlobalNodeIndex returns the index, at the given tree level, of the node
// on page pfn's verification path in the global tree.
func (l *Layout) GlobalNodeIndex(pfn PFN, level int) uint64 {
	idx := uint64(pfn)
	for i := 0; i < level; i++ {
		idx /= uint64(l.Arity)
	}
	return idx
}

// GlobalNodeAddr returns the physical address of global tree node (level,
// idx).
func (l *Layout) GlobalNodeAddr(level int, idx uint64) (uint64, error) {
	if level < 1 || level > l.GlobalLevels {
		return 0, fmt.Errorf("layout: global level %d out of range", level)
	}
	if idx >= l.globalLevelCnt[level] {
		return 0, fmt.Errorf("layout: global node %d/%d out of range", level, idx)
	}
	return l.GlobalTreeBase + (l.globalLevelOff[level]+idx)*config.BlockBytes, nil
}

// TreeLing node indexing ----------------------------------------------------

// LevelOf returns the TreeLing level (1 = leaves .. H = root) of a
// top-down node index in [0, NodesPerTreeLing). The lookup table makes it
// O(1) on the verification hot path.
func (l *Layout) LevelOf(nodeIdx int) int {
	return l.levelOfNode[nodeIdx]
}

// LevelNodeCount returns the number of nodes at a TreeLing level.
func (l *Layout) LevelNodeCount(level int) int { return l.levelCnt[level] }

// LevelOffset returns the top-down index of the first node at a level.
func (l *Layout) LevelOffset(level int) int { return l.levelOff[level] }

// NodeIndex returns the top-down node index of the i-th node at a level.
// Callers must pass i in [0, LevelNodeCount(level)); out-of-range indices
// are caught when the node index is converted to an address
// (TreeLingNodeAddr), the single validation boundary.
func (l *Layout) NodeIndex(level, i int) int {
	return l.levelOff[level] + i
}

// PosInLevel returns the position of nodeIdx within its level.
func (l *Layout) PosInLevel(nodeIdx int) int {
	return nodeIdx - l.levelOff[l.LevelOf(nodeIdx)]
}

// Parent returns the top-down index of nodeIdx's parent and the slot it
// occupies in the parent. The root has no parent (ok == false).
func (l *Layout) Parent(nodeIdx int) (parent, slot int, ok bool) {
	level := l.LevelOf(nodeIdx)
	if level == l.TreeLingHeight {
		return 0, 0, false
	}
	pos := nodeIdx - l.levelOff[level]
	return l.levelOff[level+1] + pos/l.Arity, pos % l.Arity, true
}

// Child returns the top-down index of the node covered by slot `slot` of
// nodeIdx. Leaves (level 1) have no node children (ok == false): their
// slots cover counter blocks.
func (l *Layout) Child(nodeIdx, slot int) (child int, ok bool) {
	level := l.LevelOf(nodeIdx)
	if level == 1 {
		return 0, false
	}
	pos := nodeIdx - l.levelOff[level]
	return l.levelOff[level-1] + pos*l.Arity + slot, true
}

// TreeLingNodeAddr returns the physical address of node nodeIdx of
// TreeLing tl.
func (l *Layout) TreeLingNodeAddr(tl, nodeIdx int) (uint64, error) {
	if tl < 0 || tl >= l.TreeLingCount {
		return 0, fmt.Errorf("layout: TreeLing %d out of range", tl)
	}
	if nodeIdx < 0 || nodeIdx >= l.NodesPerTreeLing {
		return 0, fmt.Errorf("layout: node %d out of range", nodeIdx)
	}
	return l.TreeLingBase + (uint64(tl)*uint64(l.NodesPerTreeLing)+uint64(nodeIdx))*config.BlockBytes, nil
}

// TreeLingNodeOfAddr is the inverse of TreeLingNodeAddr: it recovers the
// (TreeLing, node) pair whose block lives at addr.
func (l *Layout) TreeLingNodeOfAddr(addr uint64) (tl, nodeIdx int, err error) {
	if addr < l.TreeLingBase || addr >= l.NFLBase {
		return 0, 0, fmt.Errorf("layout: address %#x outside the TreeLing forest", addr)
	}
	off := addr - l.TreeLingBase
	if off%config.BlockBytes != 0 {
		return 0, 0, fmt.Errorf("layout: address %#x not node-block aligned", addr)
	}
	blk := off / config.BlockBytes
	tl = int(blk / uint64(l.NodesPerTreeLing))
	nodeIdx = int(blk % uint64(l.NodesPerTreeLing))
	if tl >= l.TreeLingCount {
		return 0, 0, fmt.Errorf("layout: address %#x past the last TreeLing", addr)
	}
	return tl, nodeIdx, nil
}

// NFLBlockAddr returns the physical address of NFL block blockIdx of
// TreeLing tl.
func (l *Layout) NFLBlockAddr(tl, blockIdx int) (uint64, error) {
	if tl < 0 || tl >= l.TreeLingCount {
		return 0, fmt.Errorf("layout: TreeLing %d out of range", tl)
	}
	if blockIdx < 0 || blockIdx >= l.NFLBlocksPerTreeLing {
		return 0, fmt.Errorf("layout: NFL block %d out of range", blockIdx)
	}
	return l.NFLBase + (uint64(tl)*uint64(l.NFLBlocksPerTreeLing)+uint64(blockIdx))*config.BlockBytes, nil
}

// PTEAddr returns a synthetic physical address for the extended PTE of
// (domain, vpn), used to charge page-walk and LMM-miss memory traffic with
// realistic spread.
func (l *Layout) PTEAddr(domain int, vpn VPN) uint64 {
	x := uint64(vpn)>>2 ^ uint64(domain)<<40
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 32
	return l.PTBase + (x&(l.ptBlocks-1))*config.BlockBytes
}
