package nvm

import (
	"encoding/binary"
	"fmt"
)

// Word-atomic primitives for lock-free persistent structures.
//
// CAS64 and AtomicLoad64 give a structure the x86 lock cmpxchg / aligned
// 8-byte load pair the simulated cache model otherwise lacks. Both take the
// covering line-group shard mutex — the same lock a precise-mode Store takes
// for its byte copy and pre-image, and the flush paths take to drop it — so
// an atomic op, a neighbouring object's partial-line store and a concurrent
// flush of the same line can never interleave mid-word, and the Go race
// detector observes a proper happens-before edge between a successful CAS
// publishing a pointer and the AtomicLoad64 that reads it.
//
// A successful CAS64 is a store in every persistence sense: the line becomes
// dirty (NOT durable until flushed and fenced), the store counters advance,
// and in precise mode it is a persist-point event a scheduled crash can land
// on — after the write is applied, exactly like Store. A failed CAS64 writes
// nothing and is counted as a load.

// mustWordAligned rejects addresses that would let an "atomic" op straddle
// two 8-byte persistence units (and therefore two possible torn-line fates).
func (p *Pool) mustWordAligned(addr uint64) {
	if addr%8 != 0 {
		panic(fmt.Sprintf("nvm: atomic access to misaligned address %#x", addr))
	}
}

// CAS64 atomically compares the little-endian uint64 at addr with old and,
// if equal, replaces it with new, reporting whether the swap happened. addr
// must be 8-byte aligned.
func (p *Pool) CAS64(addr, old, new uint64) bool {
	p.check(addr, 8)
	p.mustWordAligned(addr)
	if p.crashed.Load() {
		panic(ErrCrash) // see Store: refuse post-failure writes entirely
	}
	l := addr / LineSize
	w, bit := l>>6, uint64(1)<<(l&63)
	s := &p.shards[w&(dirtyShards-1)]
	s.mu.Lock()
	swapped := binary.LittleEndian.Uint64(p.mem[addr:]) == old
	if swapped {
		if p.fast.Load() {
			p.dirtyBits[w].Or(bit)
		} else {
			p.markDirty(s, w, bit)
		}
		binary.LittleEndian.PutUint64(p.mem[addr:], new)
	}
	s.mu.Unlock()
	h := &p.stats.hot[stripeOf(addr)]
	if !swapped {
		h.loads.Add(1)
		h.bytesLoaded.Add(8)
		return false
	}
	h.stores.Add(1)
	h.bytesStored.Add(8)
	if !p.fast.Load() {
		p.tick(CrashAtStore)
	}
	return true
}

// AtomicLoad64 reads the little-endian uint64 at addr under the covering
// line-group lock, synchronizing with concurrent CAS64/Store writers of the
// same line. addr must be 8-byte aligned. Like every load it observes the
// coherent view and is not a persistence event.
func (p *Pool) AtomicLoad64(addr uint64) uint64 {
	p.check(addr, 8)
	p.mustWordAligned(addr)
	l := addr / LineSize
	s := &p.shards[(l>>6)&(dirtyShards-1)]
	s.mu.Lock()
	v := binary.LittleEndian.Uint64(p.mem[addr:])
	s.mu.Unlock()
	h := &p.stats.hot[stripeOf(addr)]
	h.loads.Add(1)
	h.bytesLoaded.Add(8)
	return v
}
