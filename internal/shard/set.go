package shard

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// Shard is one independent persistence domain: its own pool (with its own
// cache model, persist-point counters and, if enabled, group-commit epoch),
// its own allocator (own journal, own arenas) and its own engine (own plog
// instances and transaction slots). Nothing in a Shard is shared with any
// other shard.
type Shard struct {
	Pool   *nvm.Pool
	Alloc  *pmem.Allocator
	Engine pds.Engine
}

// Set is N shards behind a consistent-hash router.
type Set struct {
	shards []*Shard
	router *Router
}

// NewSet assembles a set over already-constructed shards. The router is
// sized to len(shards).
func NewSet(shards []*Shard) *Set {
	return &Set{shards: shards, router: NewRouter(len(shards))}
}

// N returns the shard count.
func (s *Set) N() int { return len(s.shards) }

// Shard returns shard i.
func (s *Set) Shard(i int) *Shard { return s.shards[i] }

// Replace swaps shard i for a rebuilt incarnation (the post-crash recovery
// path). The caller must quiesce traffic to shard i around the swap.
func (s *Set) Replace(i int, sh *Shard) { s.shards[i] = sh }

// Router returns the set's key router.
func (s *Set) Router() *Router { return s.router }

// ShardOf returns the shard index owning key.
func (s *Set) ShardOf(key []byte) int { return s.router.ShardOf(key) }

// RecoveryReport is the merged outcome of recovering every shard.
type RecoveryReport struct {
	// Merged aggregates the per-shard engine reports counter by counter.
	Merged txn.RecoveryReport
	// PerShard holds each shard's own report, index-aligned with the set.
	PerShard []txn.RecoveryReport
	// PerShardNS is each shard's recovery wall time in isolation.
	PerShardNS []int64
	// WallNS is the whole RecoverAll wall time — with enough workers and
	// cores this approaches max(PerShardNS) rather than their sum.
	WallNS int64
	// Workers is the worker-pool size actually used.
	Workers int
}

// recoverEngine prefers the hardened report-carrying recovery; the legacy
// count-only path keeps crippled test engines runnable.
func recoverEngine(eng pds.Engine) (txn.RecoveryReport, error) {
	if rr, ok := eng.(txn.RecoveryReporter); ok {
		return rr.RecoverReport()
	}
	var rep txn.RecoveryReport
	var err error
	rep.Recovered, err = eng.Recover()
	return rep, err
}

// RecoverOne runs engine recovery for shard i alone — the single-shard
// crash path: the victim was rebuilt and swapped in via Replace while every
// other shard kept serving, so only its own log scan is needed.
func (s *Set) RecoverOne(i int) (txn.RecoveryReport, error) {
	return recoverEngine(s.shards[i].Engine)
}

// RecoverAll runs every shard's engine recovery concurrently in a worker
// pool and merges the per-shard reports. workers <= 0 picks
// min(N, GOMAXPROCS): one worker per shard up to the core count, the point
// past which more workers only contend. The first shard whose recovery
// fails outright (not per-slot quarantine — that is reported, not fatal)
// aborts with its error; the merged report still carries every shard that
// finished.
//
// Each shard recovers against only its own pool, so the shards' recovery
// scans are fully independent — this is the O(pool) → O(pool/N) recovery
// claim made concrete: wall time tracks the largest shard, not the heap.
func (s *Set) RecoverAll(workers int) (RecoveryReport, error) {
	n := len(s.shards)
	if workers <= 0 || workers > n {
		workers = n
	}
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	if workers < 1 {
		workers = 1
	}
	out := RecoveryReport{
		PerShard:   make([]txn.RecoveryReport, n),
		PerShardNS: make([]int64, n),
		Workers:    workers,
	}
	start := time.Now()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				t0 := time.Now()
				rep, err := recoverEngine(s.shards[i].Engine)
				out.PerShard[i] = rep
				out.PerShardNS[i] = time.Since(t0).Nanoseconds()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("shard %d: %w", i, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range s.shards {
		work <- i
	}
	close(work)
	wg.Wait()
	out.WallNS = time.Since(start).Nanoseconds()
	for _, rep := range out.PerShard {
		out.Merged.Add(rep)
	}
	return out, firstErr
}
