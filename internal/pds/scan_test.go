package pds

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
)

var rangerFactories = []storeFactory{
	{"bptree", func(e Engine) (Store, error) { return NewBPTree(e, testRootSlot) }},
	{"rbtree", func(e Engine) (Store, error) { return NewRBTree(e, testRootSlot) }},
	{"avltree", func(e Engine) (Store, error) { return NewAVLTree(e, testRootSlot) }},
	{"skiplist", func(e Engine) (Store, error) { return NewSkipList(e, testRootSlot) }},
}

func newRangerStore(t *testing.T, sf storeFactory) Store {
	t.Helper()
	pool := nvm.New(1 << 26)
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
	return s
}

func TestScanOrderAndBounds(t *testing.T) {
	for _, sf := range rangerFactories {
		t.Run(sf.name, func(t *testing.T) {
			s := newRangerStore(t, sf)
			r := s.(Ranger)

			// Insert shuffled keys.
			keys := make([]string, 200)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%05d", i*3)
			}
			rng := rand.New(rand.NewSource(5))
			for _, i := range rng.Perm(len(keys)) {
				if err := s.Insert(0, []byte(keys[i]), []byte("v-"+keys[i])); err != nil {
					t.Fatal(err)
				}
			}
			sort.Strings(keys)

			// Full scan: ascending order, complete coverage, matching values.
			var got []string
			err := r.Scan(0, nil, nil, func(k, v []byte) bool {
				got = append(got, string(k))
				if string(v) != "v-"+string(k) {
					t.Fatalf("value mismatch for %s: %q", k, v)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(keys) {
				t.Fatalf("full scan visited %d keys, want %d", len(got), len(keys))
			}
			for i := range keys {
				if got[i] != keys[i] {
					t.Fatalf("scan order broken at %d: %s vs %s", i, got[i], keys[i])
				}
			}

			// Bounded scan [key-00100, key-00400).
			got = nil
			err = r.Scan(0, []byte("key-00100"), []byte("key-00400"), func(k, v []byte) bool {
				got = append(got, string(k))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, k := range keys {
				if k >= "key-00100" && k < "key-00400" {
					want = append(want, k)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("bounded scan: %d keys, want %d (%v)", len(got), len(want), got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bounded scan order at %d: %s vs %s", i, got[i], want[i])
				}
			}

			// Early stop.
			count := 0
			err = r.Scan(0, nil, nil, func(k, v []byte) bool {
				count++
				return count < 5
			})
			if err != nil || count != 5 {
				t.Fatalf("early stop visited %d (err %v)", count, err)
			}

			// Empty range.
			count = 0
			err = r.Scan(0, []byte("zzz"), nil, func(k, v []byte) bool {
				count++
				return true
			})
			if err != nil || count != 0 {
				t.Fatalf("empty range visited %d (err %v)", count, err)
			}
		})
	}
}

func TestScanFromBoundIsInclusive(t *testing.T) {
	for _, sf := range rangerFactories {
		t.Run(sf.name, func(t *testing.T) {
			s := newRangerStore(t, sf)
			r := s.(Ranger)
			for _, k := range []string{"a", "b", "c", "d"} {
				if err := s.Insert(0, []byte(k), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			if err := r.Scan(0, []byte("b"), []byte("d"), func(k, v []byte) bool {
				got = append(got, string(k))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != "[b c]" {
				t.Fatalf("scan [b,d) = %v, want [b c]", got)
			}
		})
	}
}

// TestQuickHashMapMatchesModel is the testing/quick form of the model
// equivalence property on the hashmap (the full matrix test lives in
// pds_test.go; this one lets quick explore op encodings).
func TestQuickHashMapMatchesModel(t *testing.T) {
	type op struct {
		Key    uint8
		Val    uint16
		Delete bool
	}
	f := func(ops []op) bool {
		pool := nvm.New(1 << 26)
		alloc, err := pmem.Create(pool)
		if err != nil {
			return false
		}
		eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: 2}})
		if err != nil {
			return false
		}
		h, err := NewHashMap(eng, testRootSlot)
		if err != nil {
			return false
		}
		model := map[string]string{}
		for _, o := range ops {
			key := fmt.Sprintf("k%03d", o.Key)
			if o.Delete {
				existed, err := h.Delete(0, []byte(key))
				if err != nil {
					return false
				}
				if _, ok := model[key]; ok != existed {
					return false
				}
				delete(model, key)
			} else {
				val := fmt.Sprintf("v%05d", o.Val)
				if err := h.Insert(0, []byte(key), []byte(val)); err != nil {
					return false
				}
				model[key] = val
			}
		}
		for k, want := range model {
			got, found, err := h.Get(0, []byte(k))
			if err != nil || !found || string(got) != want {
				return false
			}
		}
		n, err := h.Len(0)
		return err == nil && n == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
