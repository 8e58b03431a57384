package clobber

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clobbernvm/internal/chassis"
)

// The slot line table (chassis.Lines) is clobber's access map: these tests
// pin the flag arithmetic the clobber-write detector relies on.

func newFlagTable() *chassis.Lines {
	t := new(chassis.Lines)
	t.Reset()
	return t
}

// val reads a line's packed flags (adding the line, flagless, if absent).
func val(t *chassis.Lines, line uint64) uint32 { return *t.At(line) }

func TestFlagTableBasic(t *testing.T) {
	ft := newFlagTable()
	if got := val(ft, 42); got != 0 {
		t.Fatalf("empty val = %#x", got)
	}
	markInput(ft, 42, 0b0001, false)
	if got := val(ft, 42); got != 0b0001 {
		t.Fatalf("val after markInput = %#x", got)
	}
	if old := ft.MarkStored(42, 0b0011); old != 0b0001 {
		t.Fatalf("markStored returned %#x", old)
	}
	if got := val(ft, 42); got != 0b0011<<chassis.StoredShift|0b0001 {
		t.Fatalf("val = %#x", got)
	}
	// Refined input marking skips stored words.
	markInput(ft, 42, 0b0110, false)
	if got := val(ft, 42); got != 0b0011<<chassis.StoredShift|0b0101 {
		t.Fatalf("val after refined markInput = %#x", got)
	}
	// Conservative marks them anyway.
	markInput(ft, 42, 0b0010, true)
	if got := val(ft, 42); got != 0b0011<<chassis.StoredShift|0b0111 {
		t.Fatalf("val after conservative markInput = %#x", got)
	}
	ft.MarkLogged(42, 0b0100)
	if got := val(ft, 42); got != 0b0100<<chassis.LoggedShift|0b0011<<chassis.StoredShift|0b0111 {
		t.Fatalf("val after markLogged = %#x", got)
	}
}

func TestFlagTableZeroKey(t *testing.T) {
	// Line index 0 must be storable (keys are offset by one internally).
	ft := newFlagTable()
	ft.MarkLogged(0, 0b1000)
	if got := val(ft, 0); got != 0b1000<<chassis.LoggedShift {
		t.Fatalf("val(0) = %#x", got)
	}
}

func TestFlagTableGrowth(t *testing.T) {
	ft := newFlagTable()
	const n = 10000
	for i := uint64(0); i < n; i++ {
		markInput(ft, i*3, uint32(1<<(i%8)), true)
	}
	for i := uint64(0); i < n; i++ {
		if got := val(ft, i*3); got != uint32(1<<(i%8)) {
			t.Fatalf("after growth val(%d) = %#x, want %#x", i*3, got, 1<<(i%8))
		}
	}
	if got := val(ft, 1); got != 0 {
		t.Fatalf("absent key = %#x", got)
	}
}

func TestFlagTableMatchesMapReference(t *testing.T) {
	f := func(ops []uint16) bool {
		ft := newFlagTable()
		type ref struct{ input, stored, logged uint32 }
		refs := map[uint64]*ref{}
		at := func(l uint64) *ref {
			r := refs[l]
			if r == nil {
				r = &ref{}
				refs[l] = r
			}
			return r
		}
		for _, op := range ops {
			l := uint64(op >> 5)
			wmask := uint32(1 << (op % 8))
			r := at(l)
			switch op % 3 {
			case 0: // refined load
				markInput(ft, l, wmask, false)
				r.input |= wmask &^ r.stored
			case 1: // store
				old := ft.MarkStored(l, wmask)
				want := r.logged<<chassis.LoggedShift | r.stored<<chassis.StoredShift | r.input
				if old != want {
					return false
				}
				r.stored |= wmask
			case 2: // logged
				ft.MarkLogged(l, wmask)
				r.logged |= wmask
			}
		}
		for l, r := range refs {
			want := r.logged<<chassis.LoggedShift | r.stored<<chassis.StoredShift | r.input
			if val(ft, l) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFlagTableDirtyLineDedup(t *testing.T) {
	ft := newFlagTable()
	rng := rand.New(rand.NewSource(1))
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		l := uint64(rng.Intn(600))
		ft.MarkStored(l, uint32(1<<rng.Intn(8)))
		seen[l] = true
	}
	if len(ft.Dirty) != len(seen) {
		t.Fatalf("dirty lines = %d, want %d (dedup broken)", len(ft.Dirty), len(seen))
	}
	got := map[uint64]bool{}
	for _, l := range ft.Dirty {
		if got[l] {
			t.Fatalf("line %d recorded twice", l)
		}
		got[l] = true
		if !seen[l] {
			t.Fatalf("phantom line %d", l)
		}
	}
}

func TestFlagTableReset(t *testing.T) {
	ft := newFlagTable()
	for i := uint64(0); i < 1000; i++ {
		ft.MarkStored(i, 0xff)
	}
	ft.Reset()
	if len(ft.Dirty) != 0 || ft.Len() != 0 {
		t.Fatalf("reset left dirty=%d n=%d", len(ft.Dirty), ft.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		if got := val(ft, i); got != 0 {
			t.Fatalf("val(%d) = %#x after reset", i, got)
		}
	}
	// Table stays usable after reset.
	if old := ft.MarkStored(7, 0b1); old != 0 {
		t.Fatalf("markStored after reset returned %#x", old)
	}
}
