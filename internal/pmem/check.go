package pmem

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// CheckReport summarizes a heap audit.
type CheckReport struct {
	// FreeBlocks is the total count of blocks on the segregated free lists.
	FreeBlocks int
	// FreeBytes is the byte total of those blocks.
	FreeBytes uint64
	// HugeFreeBlocks / HugeFreeBytes cover the arenas' huge free lists.
	HugeFreeBlocks int
	HugeFreeBytes  uint64
	// BumpReserve is the unbumped capacity across all arenas.
	BumpReserve uint64
	// CentralReserve is the ungranted central region.
	CentralReserve uint64

	// spans are the free and unbumped address ranges.
	spans []span
}

type span struct{ lo, hi uint64 }

// IsFree reports whether addr lies in a free block or an unbumped span: an
// address the allocator may hand out again.
func (r *CheckReport) IsFree(addr uint64) bool {
	// spans are sorted and disjoint.
	i := sort.Search(len(r.spans), func(i int) bool { return r.spans[i].hi > addr })
	return i < len(r.spans) && r.spans[i].lo <= addr
}

// ErrHeapCorrupt reports a failed heap audit.
var ErrHeapCorrupt = errors.New("pmem: heap corruption detected")

// Check audits the allocator's persistent metadata: free-list links must
// stay inside the heap, never cycle, never overlap each other or the
// unbumped regions, every block on a list must carry the free header of
// that list, arena bump/limit pairs must be sane, and the volatile mirror
// must agree with the persistent arena. It is intended
// for tests and post-recovery verification (a PM allocator that cannot
// audit itself is a debugging nightmare — PMDK ships pmempool check for the
// same reason).
//
// Check takes all arena locks, so it must not be called by a goroutine that
// holds a Tx open.
func (a *Allocator) Check() (*CheckReport, error) {
	for i := 0; i < NumArenas; i++ {
		a.arenas[i].mu.Lock()
		defer a.arenas[i].mu.Unlock()
	}
	a.centralMu.Lock()
	defer a.centralMu.Unlock()

	p := a.pool
	rep := &CheckReport{}
	heapEnd := p.Size()
	var spans []span

	cb := p.Load64(a.metaBase + 8)
	cl := p.Load64(a.metaBase + 16)
	if cb > cl || cl > heapEnd {
		return nil, fmt.Errorf("%w: central bump %#x / limit %#x", ErrHeapCorrupt, cb, cl)
	}
	rep.CentralReserve = cl - cb

	for ar := 0; ar < NumArenas; ar++ {
		bump := p.Load64(a.bumpAddr(ar))
		limit := p.Load64(a.limitAddr(ar))
		if bump > limit || limit > heapEnd {
			return nil, fmt.Errorf("%w: arena %d bump %#x / limit %#x", ErrHeapCorrupt, ar, bump, limit)
		}
		if t := &a.arenas[ar]; t.bump != bump || t.limit != limit {
			return nil, fmt.Errorf("%w: arena %d mirror bump %#x / limit %#x, persistent %#x / %#x",
				ErrHeapCorrupt, ar, t.bump, t.limit, bump, limit)
		}
		rep.BumpReserve += limit - bump
		if limit > bump {
			spans = append(spans, span{bump, limit})
		}
		for class := 0; class < numClasses; class++ {
			size := classSizes[class]
			seen := map[uint64]bool{}
			head := p.Load64(a.headAddr(ar, class))
			if mirror := a.arenas[ar].heads[class]; mirror != head {
				return nil, fmt.Errorf("%w: arena %d class %d mirror head %#x, persistent %#x",
					ErrHeapCorrupt, ar, class, mirror, head)
			}
			for blk := head; blk != 0; blk = linkOf(p.Load64(blk)) {
				if seen[blk] {
					return nil, fmt.Errorf("%w: arena %d class %d free-list cycle at %#x",
						ErrHeapCorrupt, ar, class, blk)
				}
				seen[blk] = true
				if blk < a.heapStart() || blk+size > heapEnd {
					return nil, fmt.Errorf("%w: arena %d class %d free block %#x out of heap",
						ErrHeapCorrupt, ar, class, blk)
				}
				if hdr := p.Load64(blk); hdr>>32 != freeHeader(ar, class, 0)>>32 {
					return nil, fmt.Errorf("%w: arena %d class %d free block %#x has header %#x",
						ErrHeapCorrupt, ar, class, blk, hdr)
				}
				rep.FreeBlocks++
				rep.FreeBytes += size
				spans = append(spans, span{blk, blk + size})
			}
		}

		// Huge free list.
		seen := map[uint64]bool{}
		for blk := p.Load64(a.hugeHeadAddr(ar)); blk != 0; {
			if seen[blk] {
				return nil, fmt.Errorf("%w: arena %d huge free-list cycle at %#x", ErrHeapCorrupt, ar, blk)
			}
			seen[blk] = true
			if blk < a.heapStart() || blk+8 > heapEnd {
				return nil, fmt.Errorf("%w: arena %d huge free block %#x out of heap", ErrHeapCorrupt, ar, blk)
			}
			hdr := p.Load64(blk)
			units := uint32(hdr)
			size := uint64(units) * 16
			if hdr>>32 != header(freeMagic, ar, hugeClass, 0)>>32 || size == 0 || blk+size > heapEnd {
				return nil, fmt.Errorf("%w: arena %d huge free block %#x has header %#x", ErrHeapCorrupt, ar, blk, hdr)
			}
			rep.HugeFreeBlocks++
			rep.HugeFreeBytes += size
			spans = append(spans, span{blk, blk + size})
			blk = p.Load64(hugeLink(blk, units))
		}
	}

	// No two free/unbumped spans may overlap (a double free or a record
	// applied out of turn would surface here).
	slices.SortFunc(spans, func(x, y span) int { return cmp.Compare(x.lo, y.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return nil, fmt.Errorf("%w: spans [%#x,%#x) and [%#x,%#x) overlap",
				ErrHeapCorrupt, spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
	rep.spans = spans
	return rep, nil
}
