package pds

import (
	"fmt"
	"strings"
	"testing"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
)

// invariantHdr resolves the structure's header block for direct corruption.
func invariantHdr(t *testing.T, pool *nvm.Pool) uint64 {
	t.Helper()
	hdr := pool.Load64(pool.RootSlot(testRootSlot))
	if hdr == 0 {
		t.Fatal("structure has no header")
	}
	return hdr
}

// firstChainNode walks the hashmap's buckets in the durable layout and
// returns the first non-empty bucket index and its head node.
func firstChainNode(t *testing.T, pool *nvm.Pool, hdr uint64) (bucket, node uint64) {
	t.Helper()
	for b := uint64(0); b < NumBuckets; b++ {
		if n := pool.Load64(hdr + 16 + b*8); n != 0 {
			return b, n
		}
	}
	t.Fatal("hashmap has no chain nodes")
	return 0, 0
}

// TestCheckInvariantsCatchesCorruption builds each structure, verifies the
// clean shape passes its checker, then smashes the persistent layout with a
// targeted corruption and asserts the checker reports it. Corruptions write
// through pool.Store64 directly — exactly the damage a buggy recovery path
// would leave behind.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	cases := []struct {
		structure string
		name      string
		corrupt   func(t *testing.T, pool *nvm.Pool, hdr uint64)
	}{
		{"hashmap", "magic", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			pool.Store64(hdr, 0xdead)
		}},
		{"hashmap", "bucket-count", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			pool.Store64(hdr+8, 123)
		}},
		{"hashmap", "wrong-bucket", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			// Cross-link a chain into a bucket its keys do not hash to.
			b, node := firstChainNode(t, pool, hdr)
			other := (b + 1) % NumBuckets
			pool.Store64(hdr+16+other*8, node)
		}},
		{"hashmap", "chain-cycle", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			_, node := firstChainNode(t, pool, hdr)
			pool.Store64(node+8, node)
		}},
		{"hashmap", "kv-out-of-pool", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			_, node := firstChainNode(t, pool, hdr)
			pool.Store64(node, pool.Size()+1024)
		}},
		{"skiplist", "magic", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			pool.Store64(hdr, 0xdead)
		}},
		{"skiplist", "keys-out-of-order", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			n1 := pool.Load64(hdr + 8)
			if n1 == 0 {
				t.Fatal("empty skiplist")
			}
			n2 := pool.Load64(n1 + 16)
			if n2 == 0 {
				t.Fatal("skiplist has one node")
			}
			kv1, kv2 := pool.Load64(n1+8), pool.Load64(n2+8)
			pool.Store64(n1+8, kv2)
			pool.Store64(n2+8, kv1)
		}},
		{"skiplist", "level-out-of-range", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			n1 := pool.Load64(hdr + 8)
			if n1 == 0 {
				t.Fatal("empty skiplist")
			}
			pool.Store64(n1, 99)
		}},
		{"skiplist", "level-divergence", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			// Drop the tallest index layer: its nodes still declare the
			// taller level, so the level profile no longer matches.
			for i := SkipLevels - 1; i >= 1; i-- {
				if pool.Load64(hdr+8+uint64(i)*8) != 0 {
					pool.Store64(hdr+8+uint64(i)*8, 0)
					return
				}
			}
			t.Fatal("no node taller than level 1")
		}},
		{"skiplist", "level0-cycle", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			n1 := pool.Load64(hdr + 8)
			if n1 == 0 {
				t.Fatal("empty skiplist")
			}
			pool.Store64(n1+16, n1)
		}},
		{"list", "magic", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			pool.Store64(hdr, 0xdead)
		}},
		{"list", "cycle", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			node := pool.Load64(hdr + 8)
			if node == 0 {
				t.Fatal("empty list")
			}
			pool.Store64(node+8, node)
		}},
		{"list", "duplicate-key", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			n1 := pool.Load64(hdr + 8)
			n2 := pool.Load64(n1 + 8)
			if n1 == 0 || n2 == 0 {
				t.Fatal("list too short")
			}
			pool.Store64(n2, pool.Load64(n1))
		}},
		{"rbtree", "red-root", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			root := pool.Load64(hdr + 8)
			if root == 0 {
				t.Fatal("empty rbtree")
			}
			pool.Store64(root+rbColor, red)
		}},
		{"rbtree", "wild-root-pointer", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			// Out-of-pool root: the walk panics and the wrapper must turn
			// that into an error rather than killing the harness.
			pool.Store64(hdr+8, pool.Size()+4096)
		}},
		{"avltree", "imbalance", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			root := pool.Load64(hdr + 8)
			if root == 0 {
				t.Fatal("empty avltree")
			}
			pool.Store64(root+avlLeft, 0)
		}},
		{"bptree", "overfull-node", func(t *testing.T, pool *nvm.Pool, hdr uint64) {
			root := pool.Load64(hdr + 8)
			if root == 0 {
				t.Fatal("empty bptree")
			}
			pool.Store64(root+bptNKeys, bptOrder+5)
		}},
	}

	for _, tc := range cases {
		t.Run(tc.structure+"/"+tc.name, func(t *testing.T) {
			pool := nvm.New(1 << 24)
			alloc, err := pmem.Create(pool)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: 2}})
			if err != nil {
				t.Fatal(err)
			}
			var s Store
			for _, sf := range storeFactories {
				if sf.name == tc.structure {
					if s, err = sf.open(eng); err != nil {
						t.Fatal(err)
					}
				}
			}
			if s == nil {
				t.Fatalf("unknown structure %q", tc.structure)
			}
			for i := 0; i < 40; i++ {
				key := []byte(fmt.Sprintf("inv-%03d", i))
				if err := s.Insert(0, key, []byte(fmt.Sprintf("val-%03d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := CheckInvariants(s, 0); err != nil {
				t.Fatalf("clean structure failed its checker: %v", err)
			}
			tc.corrupt(t, pool, invariantHdr(t, pool))
			err = CheckInvariants(s, 0)
			if err == nil {
				t.Fatalf("%s checker missed the %s corruption", tc.structure, tc.name)
			}
			if !strings.Contains(err.Error(), tc.structure) {
				t.Fatalf("error does not name the structure: %v", err)
			}
			t.Logf("caught: %v", err)
		})
	}
}

// TestCheckInvariantsAllStructuresClean runs every structure through the
// package-level wrapper on an untouched instance: no checker may flag a
// freshly built shape.
func TestCheckInvariantsAllStructuresClean(t *testing.T) {
	for _, sf := range storeFactories {
		t.Run(sf.name, func(t *testing.T) {
			pool := nvm.New(1 << 24)
			alloc, err := pmem.Create(pool)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: 2}})
			if err != nil {
				t.Fatal(err)
			}
			s, err := sf.open(eng)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Insert(0, []byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := CheckInvariants(s, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}
