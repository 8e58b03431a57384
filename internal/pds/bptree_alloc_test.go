package pds

import (
	"fmt"
	"testing"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
)

// bptShiftInsertAllocs bounds what a non-splitting BPTree.Insert on the
// clobber engine allocates on the Go heap per op: the argument record, the
// read-only probes' closures, the transaction's memory view and the like.
// Declaring a shift's ranges adds nothing to it.
const bptShiftInsertAllocs = 16

// TestBPTreeShiftInsertAllocs inserts at the front of one leaf, so every
// insert shifts the whole key and pointer run and none splits, and bounds
// the Go heap allocations per insert.
func TestBPTreeShiftInsertAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	pool := nvm.New(1<<24, nvm.WithEviction(nvm.EvictNone))
	alloc, err := pmem.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engineFactories[0].create(pool, alloc)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewBPTree(eng, testRootSlot)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(0, []byte("key-999"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 12)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", 900-i))
	}
	next := 0
	val := []byte("a value of some length")
	got := testing.AllocsPerRun(len(keys)-1, func() {
		if err := tree.Insert(0, keys[next], val); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if got > bptShiftInsertAllocs {
		t.Fatalf("a shifting insert allocates %.1f times, want at most %d", got, bptShiftInsertAllocs)
	}
	checkInvariants(t, tree)
}
