package enginetest

import (
	"fmt"
	"sort"
	"testing"

	"clobbernvm/internal/pds"
)

// TestBPTreeRangeMovesOnEveryEngine drives the B+tree's node edits — one
// Load of a run of slots, one Store of its image one place over, source and
// destination overlapping like a memmove — through each engine's own
// discipline (clobber entry, undo range, buffered redo write). A leaf is
// filled to 15 keys, then keys go in at positions 0, 7 and 15 and come out at
// 0, 7 and 14; after every step the tree must match the model in order and
// value and pass its invariants, and at the end it must survive a crash.
func TestBPTreeRangeMovesOnEveryEngine(t *testing.T) {
	steps := []struct {
		del bool
		key string
		at  int // the key's index in the leaf when the step runs
	}{
		{false, "k00", 0}, {true, "k00", 0},
		{false, "k15", 7}, {true, "k15", 7},
		{false, "k99", 15}, {true, "k30", 14},
	}
	for _, f := range factories[:4] {
		t.Run(f.name, func(t *testing.T) {
			p, e := newPoolEngine(t, f, 7)
			tree, err := pds.NewBPTree(e.(pds.Engine), 16)
			if err != nil {
				t.Fatal(err)
			}
			model := map[string]string{}
			check := func(tree *pds.BPTree, when string) {
				t.Helper()
				want := make([]string, 0, len(model))
				for k := range model {
					want = append(want, k)
				}
				sort.Strings(want)
				var got []string
				if err := tree.Scan(0, nil, nil, func(k, v []byte) bool {
					got = append(got, string(k))
					if model[string(k)] != string(v) {
						t.Errorf("%s: %s holds %q, want %q", when, k, v, model[string(k)])
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: keys %v, want %v", when, got, want)
				}
				if err := tree.CheckInvariants(0); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			for i := 2; i <= 30; i += 2 {
				k := fmt.Sprintf("k%02d", i)
				model[k] = "v-" + k
				if err := tree.Insert(0, []byte(k), []byte(model[k])); err != nil {
					t.Fatal(err)
				}
			}
			check(tree, "seeded")
			for _, s := range steps {
				below := 0
				for k := range model {
					if k < s.key {
						below++
					}
				}
				if below != s.at {
					t.Fatalf("step table: %s sits at %d, not %d", s.key, below, s.at)
				}
				when := fmt.Sprintf("insert %s at %d", s.key, s.at)
				if s.del {
					when = fmt.Sprintf("delete %s at %d", s.key, s.at)
					delete(model, s.key)
					if ok, err := tree.Delete(0, []byte(s.key)); err != nil || !ok {
						t.Fatalf("%s: ok=%v err=%v", when, ok, err)
					}
				} else {
					model[s.key] = "v-" + s.key
					if err := tree.Insert(0, []byte(s.key), []byte(model[s.key])); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
				check(tree, when)
			}

			e2 := reopenEngine(t, f, p)
			tree2, err := pds.NewBPTree(e2.(pds.Engine), 16)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e2.Recover(); err != nil {
				t.Fatal(err)
			}
			check(tree2, "after crash")
		})
	}
}
