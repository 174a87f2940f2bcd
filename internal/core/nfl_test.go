package core

import (
	"testing"
	"testing/quick"

	"ivleague/internal/layout"
)

// testIndex builds a lookup index tracking the given nodes, over up to 8
// TreeLings.
func testIndex(tracked []int32) *nflIndex {
	nodes := 0
	for _, n := range tracked {
		if int(n) >= nodes {
			nodes = int(n) + 1
		}
	}
	return newNFLIndex(tracked, nodes, make([]int32, 8))
}

// seqNodes returns the node list first, first+1, ..., first+n-1.
func seqNodes(first, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(first + i)
	}
	return out
}

func testSpace(tl int, nodes int) *nflSpace {
	s := newNFLSpace(8, testIndex(seqNodes(100, nodes)))
	s.addRegion(tl, 0xff, 0)
	return s
}

func TestNFLSpaceTakeOrder(t *testing.T) {
	s := testSpace(0, 16)
	r, b := s.frontier()
	tag, ok := s.peek(r, b)
	if !ok {
		t.Fatal("empty peek on fresh region")
	}
	if _, node := unpackTag(tag); node != 100 {
		t.Fatalf("first tracked node %d, want 100", node)
	}
	// Claim all 8 slots of the first node, in bit order.
	for want := 0; want < 8; want++ {
		slot, ok := s.take(r, b, tag)
		if !ok || slot != want {
			t.Fatalf("take %d: got %d ok=%v", want, slot, ok)
		}
	}
	if _, ok := s.take(r, b, tag); ok {
		t.Fatal("took a 9th slot from an 8-slot node")
	}
	// Peek moves to the next entry.
	tag2, _ := s.peek(r, b)
	if _, node := unpackTag(tag2); node != 101 {
		t.Fatalf("next node %d, want 101", node)
	}
}

func TestNFLSpaceAdvanceAndExhaust(t *testing.T) {
	s := testSpace(0, 16) // 2 blocks of 8 entries
	total := 0
	for !s.exhausted() {
		r, b := s.frontier()
		if tag, ok := s.peek(r, b); ok {
			if _, ok := s.take(r, b, tag); ok {
				total++
				continue
			}
		}
		s.advance()
	}
	if total != 16*8 {
		t.Fatalf("extracted %d slots, want %d", total, 16*8)
	}
}

func TestNFLSpaceReleaseTagMatch(t *testing.T) {
	s := testSpace(0, 8)
	r, b := s.frontier()
	tag, _ := s.peek(r, b)
	s.take(r, b, tag)
	if !s.release(r, b, tag, 0) {
		t.Fatal("release with tag present failed")
	}
	slot, ok := s.take(r, b, tag)
	if !ok || slot != 0 {
		t.Fatal("released slot not retaken first")
	}
}

func TestNFLSpaceReleaseRepurposesFullEntry(t *testing.T) {
	s := testSpace(0, 8)
	r, b := s.frontier()
	// Fully map node 100.
	tag := packTag(0, 100)
	for i := 0; i < 8; i++ {
		s.take(r, b, tag)
	}
	// Release a slot of an untracked node from ANOTHER TreeLing: the
	// full entry must be repurposed (cross-TreeLing tags are legal).
	foreign := packTag(7, 42)
	if !s.release(r, b, foreign, 3) {
		t.Fatal("repurposing failed with a fully-assigned entry present")
	}
	got, ok := s.take(r, b, foreign)
	if !ok || got != 3 {
		t.Fatalf("foreign slot not tracked: %d %v", got, ok)
	}
}

func TestNFLSpaceReleaseFailsWhenAllPartial(t *testing.T) {
	s := testSpace(0, 8)
	r, b := s.frontier()
	// Take exactly one slot from each entry: all entries partial, no tag
	// match for a foreign node, nothing to repurpose.
	for i := 0; i < 8; i++ {
		tag := packTag(0, 100+i)
		if _, ok := s.take(r, b, tag); !ok {
			t.Fatal("setup take failed")
		}
	}
	if s.release(r, b, packTag(3, 9), 0) {
		t.Fatal("release succeeded with no full entry and no tag match")
	}
}

func TestNFLSpaceRewindAcrossRegions(t *testing.T) {
	s := newNFLSpace(8, testIndex(seqNodes(1, 8)))
	s.addRegion(1, 0xff, 0)
	s.addRegion(2, 0xff, 0)
	// Move the frontier into region 2.
	s.advance()
	if r, _ := s.frontier(); r.tl != 2 {
		t.Fatal("advance did not cross regions")
	}
	if !s.rewind() {
		t.Fatal("rewind failed")
	}
	if r, b := s.frontier(); r.tl != 1 || b != 0 {
		t.Fatalf("rewind landed at tl=%d b=%d", r.tl, b)
	}
	if s.rewind() {
		t.Fatal("rewind past the first block succeeded")
	}
}

func TestNFLSpaceRewindCrossRegionMultiBlock(t *testing.T) {
	// Section VI-C1: rewinding at a region's first block must land on the
	// *last* block of the previous TreeLing's NFL, not its first.
	s := newNFLSpace(8, testIndex(seqNodes(0, 24))) // 3 blocks of 8 entries
	s.addRegion(1, 0xff, 0)
	s.addRegion(2, 0xff, 3)
	for i := 0; i < 3; i++ { // frontier to region 2, block 0
		s.advance()
	}
	if r, b := s.frontier(); r.tl != 2 || b != 0 {
		t.Fatalf("setup frontier at tl=%d b=%d", r.tl, b)
	}
	if !s.rewind() {
		t.Fatal("cross-region rewind failed")
	}
	if r, b := s.frontier(); r.tl != 1 || b != 2 {
		t.Fatalf("rewind landed at tl=%d b=%d, want tl=1 b=2", r.tl, b)
	}
}

func TestNFLSpaceRewindFromExhausted(t *testing.T) {
	// Once the frontier has run past the last region, a deallocation-driven
	// rewind must step back onto the last region's last block.
	s := newNFLSpace(8, testIndex(seqNodes(1, 10)))
	s.addRegion(1, 0xff, 0)
	s.addRegion(2, 0xff, 2)
	for !s.exhausted() {
		s.advance()
	}
	if !s.rewind() {
		t.Fatal("rewind from exhausted failed")
	}
	if s.exhausted() {
		t.Fatal("still exhausted after rewind")
	}
	if r, b := s.frontier(); r.tl != 2 || b != r.nBlocks-1 {
		t.Fatalf("rewind landed at tl=%d b=%d, want tl=2 last block", r.tl, b)
	}
}

func TestNFLSpaceFreeSlotAccounting(t *testing.T) {
	s := testSpace(0, 4)
	if got := freeSlots(s); got != 32 {
		t.Fatalf("fresh free slots %d, want 32", got)
	}
	r, b := s.frontier()
	tag, _ := s.peek(r, b)
	s.take(r, b, tag)
	if got := freeSlots(s); got != 31 {
		t.Fatalf("after take: %d", got)
	}
	if got := s.trackedSlotCapacity(8); got != 32 {
		t.Fatalf("capacity %d", got)
	}
}

func TestNFLSpaceClearSlot(t *testing.T) {
	s := testSpace(0, 16)
	tag := packTag(0, 108) // second block
	if !s.clearSlot(0, 108, 5) {
		t.Fatal("clearSlot missed an available slot")
	}
	if s.clearSlot(0, 108, 5) {
		t.Fatal("double clear succeeded")
	}
	// The cleared slot must not be handed out.
	count := 0
	for !s.exhausted() {
		r, b := s.frontier()
		if tg, ok := s.peek(r, b); ok {
			if slot, ok := s.take(r, b, tg); ok {
				if tg == tag && slot == 5 {
					t.Fatal("cleared slot was allocated")
				}
				count++
				continue
			}
		}
		s.advance()
	}
	if count != 16*8-1 {
		t.Fatalf("allocated %d, want %d", count, 16*8-1)
	}
}

func TestPackUnpackTagProperty(t *testing.T) {
	f := func(tl uint16, node uint32) bool {
		n := int(node) % (1 << 24)
		tag := packTag(int(tl), n)
		gtl, gnode := unpackTag(tag)
		return gtl == int(tl) && gnode == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNFLBEvictionWritesBackDirty(t *testing.T) {
	cfg := testConfig()
	lay := layout.New(&cfg)
	b := newNFLB(2)
	var ops OpList
	b.Access(lay, 0, 0, true, &ops) // miss, dirty
	b.Access(lay, 0, 1, false, &ops)
	ops.Reset()
	b.Access(lay, 0, 2, false, &ops) // evicts (0,0), dirty
	wbAddr, err := lay.NFLBlockAddr(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	foundWB := false
	for _, op := range ops.Ops {
		if op.Write && op.Addr == wbAddr {
			foundWB = true
		}
	}
	if !foundWB {
		t.Fatal("dirty NFLB eviction produced no write-back")
	}
	if b.Hits.Value() != 0 {
		t.Fatalf("%d hits after all misses", b.Hits.Value())
	}
	// Re-access a resident block: hit, no ops.
	ops.Reset()
	if !b.Access(lay, 0, 2, false, &ops) {
		t.Fatal("resident block missed")
	}
	if len(ops.Ops) != 0 {
		t.Fatal("hit produced memory traffic")
	}
}

func TestHotTrackerMisraGries(t *testing.T) {
	tr := newHotTracker(2, 8, 3, 0)
	// A recurring key survives one-shot noise.
	tr.observe(1)
	tr.observe(1) // count 2
	tr.observe(2) // fills second entry
	if !tr.observe(1) {
		t.Fatal("key 1 did not reach threshold 3")
	}
	// One-shot keys should decrement, not evict, key 1.
	if tr.observe(3) || tr.observe(4) {
		t.Fatal("a one-shot key reported hot")
	}
	if _, ok := tr.index.get(1); !ok {
		t.Fatal("hot key evicted by one-shot noise")
	}
	if !tr.atThreshold(1) {
		t.Fatal("atThreshold lost the hot key")
	}
	// Still hot on its next access, though the counter did not cross the
	// threshold on it.
	if !tr.observe(1) {
		t.Fatal("observe reported a key above the threshold as cold")
	}
}

func TestHotTrackerClearInterval(t *testing.T) {
	tr := newHotTracker(4, 8, 2, 4)
	tr.observe(1)
	if !tr.observe(1) || !tr.atThreshold(1) {
		t.Fatal("not hot before clear")
	}
	tr.observe(2)
	tr.observe(3) // 4th observation triggers the periodic clear
	if tr.atThreshold(1) {
		t.Fatal("counter survived the clear interval")
	}
	if tr.observe(1) {
		t.Fatal("first access after the clear reported hot")
	}
}

func TestNFLSpaceClearSlotFindsRepurposedEntry(t *testing.T) {
	s := testSpace(0, 16)
	r, b := s.frontier()
	own := packTag(0, 100)
	for i := 0; i < 8; i++ {
		s.take(r, b, own)
	}
	// TreeLing 3 has no region here, so only the repurposed list can lead
	// the lookup to the entry release re-tags for its slot.
	if !s.release(r, b, packTag(3, 42), 2) {
		t.Fatal("release found no entry to repurpose")
	}
	if got, want := s.offering(3, 42, 2), scanOffering(s, 3, 42, 2); got == nil || got != want {
		t.Fatalf("offering = %p, whole-space scan = %p", got, want)
	}
	if len(s.repurposed) != 1 {
		t.Fatalf("%d repurposed entries listed, want 1", len(s.repurposed))
	}
	if !s.clearSlot(3, 42, 2) || s.clearSlot(3, 42, 2) {
		t.Fatal("clearSlot did not consume the repurposed entry's slot exactly once")
	}
	// Re-tagging the same position again must not list it twice.
	if !s.release(r, b, packTag(4, 7), 0) || len(s.repurposed) != 1 {
		t.Fatalf("second repurposing of one entry: %d listed, want 1", len(s.repurposed))
	}
}
