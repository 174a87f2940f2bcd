package core

import (
	"ivleague/internal/cache"
	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/telemetry"
)

// LMMCache is the on-chip Leaf Mapping Metadata cache in the memory
// controller (Figure 5): it caches the leaf-ID field of extended PTEs so
// integrity verification can locate a page's TreeLing slot without a
// memory indirection. Entries are keyed by (domain, VPN) and are kept
// consistent with the TLB: a TLB eviction must invalidate the entry.
type LMMCache struct {
	c *cache.Cache
}

// NewLMMCache builds the cache from its configuration.
func NewLMMCache(cfg config.CacheConfig, seed uint64) (*LMMCache, error) {
	c, err := cache.New(cfg, seed, 0)
	if err != nil {
		return nil, err
	}
	return &LMMCache{c: c}, nil
}

func lmmAddr(domain int, vpn layout.VPN) uint64 {
	return (uint64(vpn) | uint64(domain)<<36) << config.BlockShift
}

// Access looks the mapping up, filling on a miss (the caller charges the
// PTE memory read on a miss). write marks the entry dirty (LMM update).
//
//ivlint:hotpath
func (l *LMMCache) Access(domain int, vpn layout.VPN, write bool) (hit bool) {
	return l.c.Access(lmmAddr(domain, vpn), write).Hit
}

// Invalidate drops the entry for (domain, vpn); called on TLB eviction to
// keep the structures consistent (Section VI-C2).
func (l *LMMCache) Invalidate(domain int, vpn layout.VPN) {
	l.c.Invalidate(lmmAddr(domain, vpn))
}

// RegisterMetrics registers the underlying cache's counters.
func (l *LMMCache) RegisterMetrics(r *telemetry.Registry, prefix string) {
	l.c.RegisterMetrics(r, prefix)
}

// Stats exposes the underlying cache for counter access.
func (l *LMMCache) Stats() *cache.Cache { return l.c }
