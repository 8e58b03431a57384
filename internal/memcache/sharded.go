package memcache

import (
	"fmt"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/shard"
	"clobbernvm/internal/txn"
)

// ShardedBackend fronts N independently supervised caches — each with its
// own pool, allocator, engine and Supervisor — behind a consistent-hash key
// router. It implements Backend, so the protocol layer serves a sharded
// deployment exactly as it serves a single cache.
//
// The isolation property is the point: a crash latches one shard's pool and
// trips only that shard's supervisor, which drains, rebuilds and recovers
// its own pool/N-sized domain while every other shard keeps serving
// untouched. Clients see "SERVER_ERROR recovering" only for keys routed to
// the crashed shard, only during its recovery window.
type ShardedBackend struct {
	sups   []*Supervisor
	router *shard.Router
}

var _ Backend = (*ShardedBackend)(nil)

// NewShardedBackend assembles the dispatch layer over per-shard
// supervisors. The router is sized to len(sups); at least one is required.
func NewShardedBackend(sups []*Supervisor) (*ShardedBackend, error) {
	if len(sups) == 0 {
		return nil, fmt.Errorf("memcache: sharded backend needs at least one shard")
	}
	return &ShardedBackend{sups: sups, router: shard.NewRouter(len(sups))}, nil
}

// N returns the shard count.
func (b *ShardedBackend) N() int { return len(b.sups) }

// Shard returns shard i's supervisor (harnesses arm crashes and poll
// generations through it).
func (b *ShardedBackend) Shard(i int) *Supervisor { return b.sups[i] }

// ShardOf returns the shard index owning key.
func (b *ShardedBackend) ShardOf(key []byte) int { return b.router.ShardOf(key) }

// SetFlags routes the store to the shard owning key.
func (b *ShardedBackend) SetFlags(slot int, key, value []byte, flags uint32) error {
	return b.sups[b.router.ShardOf(key)].SetFlags(slot, key, value, flags)
}

// Set stores key=value with zero flags.
func (b *ShardedBackend) Set(slot int, key, value []byte) error {
	return b.SetFlags(slot, key, value, 0)
}

// Add routes the conditional store to the shard owning key.
func (b *ShardedBackend) Add(slot int, key, value []byte, flags uint32) (bool, error) {
	return b.sups[b.router.ShardOf(key)].Add(slot, key, value, flags)
}

// Replace routes the conditional store to the shard owning key.
func (b *ShardedBackend) Replace(slot int, key, value []byte, flags uint32) (bool, error) {
	return b.sups[b.router.ShardOf(key)].Replace(slot, key, value, flags)
}

// GetWithCAS routes the lookup to the shard owning key.
func (b *ShardedBackend) GetWithCAS(slot int, key []byte) ([]byte, uint32, uint64, bool, error) {
	return b.sups[b.router.ShardOf(key)].GetWithCAS(slot, key)
}

// Get returns the value for key.
func (b *ShardedBackend) Get(slot int, key []byte) ([]byte, bool, error) {
	return b.sups[b.router.ShardOf(key)].Get(slot, key)
}

// Delete routes the removal to the shard owning key.
func (b *ShardedBackend) Delete(slot int, key []byte) (bool, error) {
	return b.sups[b.router.ShardOf(key)].Delete(slot, key)
}

// Len sums the item count over every shard. A shard mid-recovery makes the
// total momentarily unknowable; the first shard error is returned.
func (b *ShardedBackend) Len() (int, error) {
	total := 0
	for _, s := range b.sups {
		n, err := s.Len()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Counters sums the volatile hit/miss/eviction counters over every shard.
func (b *ShardedBackend) Counters() (hits, misses, evictions int64) {
	for _, s := range b.sups {
		h, m, e := s.Counters()
		hits, misses, evictions = hits+h, misses+m, evictions+e
	}
	return hits, misses, evictions
}

// FrontStats sums the front-cache counters over every shard.
func (b *ShardedBackend) FrontStats() FrontStats {
	var out FrontStats
	for _, s := range b.sups {
		fs := s.FrontStats()
		out.Enabled = out.Enabled || fs.Enabled
		out.Hits += fs.Hits
		out.Misses += fs.Misses
		out.Invalidations += fs.Invalidations
		out.Drops += fs.Drops
	}
	return out
}

// Engine returns shard 0's engine: the protocol's stats command reports one
// engine's counters, and shard 0 is the deterministic representative.
func (b *ShardedBackend) Engine() pds.Engine { return b.sups[0].Engine() }

// CheckInvariants verifies every shard's structural invariants.
func (b *ShardedBackend) CheckInvariants() error {
	for i, s := range b.sups {
		if err := s.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Serving reports whether every shard is accepting operations.
func (b *ShardedBackend) Serving() bool {
	for _, s := range b.sups {
		if !s.Serving() {
			return false
		}
	}
	return true
}

// Restarts sums completed crash→recover→resume cycles over every shard.
func (b *ShardedBackend) Restarts() int64 {
	var n int64
	for _, s := range b.sups {
		n += s.Restarts()
	}
	return n
}

// ArmShard schedules a crash on one shard's live pool; every other shard is
// left untouched.
func (b *ShardedBackend) ArmShard(i int, kind nvm.CrashKind, n int64) error {
	return b.sups[i].Arm(kind, n)
}

// Statuses snapshots every shard's supervisor state, index-aligned.
func (b *ShardedBackend) Statuses() []Status {
	out := make([]Status, len(b.sups))
	for i, s := range b.sups {
		out[i] = s.Status()
	}
	return out
}

// LastReports returns each shard's most recent recovery report merged into
// one, the way shard.Set.RecoverAll merges a full restart — so dashboards
// aggregate a sharded deployment the same way they read a single one.
func (b *ShardedBackend) LastReports() txn.RecoveryReport {
	var merged txn.RecoveryReport
	for _, s := range b.sups {
		rep, _ := s.LastReport()
		merged.Add(rep)
	}
	return merged
}
