package vacation

import (
	"errors"
	"testing"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/undolog"
)

const vacSlot = 24

func newManager(t *testing.T, kind TreeKind) (*nvm.Pool, *Manager) {
	t.Helper()
	pool := nvm.New(1 << 26)
	alloc, err := pmem.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: 8}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(eng, vacSlot, kind)
	if err != nil {
		t.Fatal(err)
	}
	return pool, v
}

func TestReserveAndBill(t *testing.T) {
	for _, kind := range []TreeKind{RBTreeTables, AVLTreeTables} {
		t.Run(kind.String(), func(t *testing.T) {
			_, v := newManager(t, kind)
			if err := v.AddItem(0, Car, 1, 5, 100); err != nil {
				t.Fatal(err)
			}
			if err := v.AddItem(0, Flight, 2, 5, 300); err != nil {
				t.Fatal(err)
			}
			if err := v.AddCustomer(0, 7); err != nil {
				t.Fatal(err)
			}
			err := v.MakeReservation(0, 7, []QueryItem{
				{Type: Car, ID: 1},
				{Type: Flight, ID: 2},
				{Type: Room, ID: 99}, // missing: ignored
			})
			if err != nil {
				t.Fatal(err)
			}
			bill, found, err := v.CustomerBill(0, 7)
			if err != nil || !found {
				t.Fatalf("bill lookup: %v %v", found, err)
			}
			if bill != 400 {
				t.Fatalf("bill = %d, want 400", bill)
			}
			if err := v.CheckConsistency(0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReservePicksHighestPrice(t *testing.T) {
	_, v := newManager(t, RBTreeTables)
	v.AddItem(0, Car, 1, 5, 100)
	v.AddItem(0, Car, 2, 5, 500)
	v.AddCustomer(0, 1)
	if err := v.MakeReservation(0, 1, []QueryItem{{Car, 1}, {Car, 2}}); err != nil {
		t.Fatal(err)
	}
	bill, _, _ := v.CustomerBill(0, 1)
	if bill != 500 {
		t.Fatalf("bill = %d, want 500 (highest-priced car)", bill)
	}
}

func TestReserveExhaustedItem(t *testing.T) {
	_, v := newManager(t, RBTreeTables)
	v.AddItem(0, Room, 3, 1, 80)
	v.AddCustomer(0, 1)
	v.AddCustomer(0, 2)
	if err := v.MakeReservation(0, 1, []QueryItem{{Room, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := v.MakeReservation(0, 2, []QueryItem{{Room, 3}}); err != nil {
		t.Fatal(err)
	}
	b1, _, _ := v.CustomerBill(0, 1)
	b2, _, _ := v.CustomerBill(0, 2)
	if b1 != 80 || b2 != 0 {
		t.Fatalf("bills = %d, %d; want 80, 0 (room sold out)", b1, b2)
	}
	if err := v.CheckConsistency(0); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteCustomerReleasesReservations(t *testing.T) {
	_, v := newManager(t, AVLTreeTables)
	v.AddItem(0, Flight, 9, 2, 250)
	v.AddCustomer(0, 4)
	if err := v.MakeReservation(0, 4, []QueryItem{{Flight, 9}}); err != nil {
		t.Fatal(err)
	}
	if err := v.DeleteCustomer(0, 4); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := v.CustomerBill(0, 4); found {
		t.Fatal("deleted customer still present")
	}
	// Seat released: a new customer can book twice.
	v.AddCustomer(0, 5)
	v.MakeReservation(0, 5, []QueryItem{{Flight, 9}})
	v.MakeReservation(0, 5, []QueryItem{{Flight, 9}})
	bill, _, _ := v.CustomerBill(0, 5)
	if bill != 500 {
		t.Fatalf("bill = %d, want 500 (both seats available again)", bill)
	}
	if err := v.CheckConsistency(0); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteItemOnlyWhenFree(t *testing.T) {
	_, v := newManager(t, RBTreeTables)
	v.AddItem(0, Car, 1, 1, 50)
	v.AddCustomer(0, 1)
	v.MakeReservation(0, 1, []QueryItem{{Car, 1}})
	if err := v.DeleteItem(0, Car, 1); err != nil {
		t.Fatal(err)
	}
	// Still booked → must not have been removed.
	if err := v.CheckConsistency(0); err != nil {
		t.Fatal(err)
	}
	v.DeleteCustomer(0, 1)
	if err := v.DeleteItem(0, Car, 1); err != nil {
		t.Fatal(err)
	}
	if err := v.CheckConsistency(0); err != nil {
		t.Fatal(err)
	}
}

func TestTaskStreamConsistency(t *testing.T) {
	for _, kind := range []TreeKind{RBTreeTables, AVLTreeTables} {
		t.Run(kind.String(), func(t *testing.T) {
			_, v := newManager(t, kind)
			if err := v.Populate(0, 40, 1); err != nil {
				t.Fatal(err)
			}
			for _, task := range GenTasks(400, 4, 40, 2) {
				if err := v.RunTask(0, task); err != nil {
					t.Fatal(err)
				}
			}
			if err := v.CheckConsistency(0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestParallelTasks(t *testing.T) {
	_, v := newManager(t, RBTreeTables)
	if err := v.Populate(0, 30, 3); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			var err error
			for _, task := range GenTasks(100, 2, 30, int64(100+w)) {
				if err = v.RunTask(w, task); err != nil {
					break
				}
			}
			done <- err
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := v.CheckConsistency(0); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringReservation crashes mid-transaction and verifies the books
// still balance after recovery — the cross-table atomicity the application
// exists to demonstrate.
func TestCrashDuringReservation(t *testing.T) {
	for n := int64(10); n <= 400; n += 37 {
		pool := nvm.New(1<<26, nvm.WithEvictProbability(0.5), nvm.WithSeed(n))
		alloc, err := pmem.Create(pool)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: 4}})
		if err != nil {
			t.Fatal(err)
		}
		v, err := New(eng, vacSlot, RBTreeTables)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Populate(0, 20, n); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := v.MakeReservation(0, uint64(i), []QueryItem{
				{Car, uint64(i)}, {Flight, uint64(i)},
			}); err != nil {
				t.Fatal(err)
			}
		}

		pool.ScheduleCrash(n)
		fired := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					err, ok := r.(error)
					if !ok || !errors.Is(err, nvm.ErrCrash) {
						panic(r)
					}
					fired = true
				}
			}()
			_ = v.MakeReservation(0, 15, []QueryItem{{Car, 3}, {Room, 4}, {Flight, 5}})
		}()
		if !fired {
			continue
		}
		pool.Crash()
		alloc2, err := pmem.Attach(pool)
		if err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		eng2, err := clobber.Attach(pool, alloc2, clobber.Options{})
		if err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		v2, err := New(eng2, vacSlot, RBTreeTables)
		if err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		if _, err := eng2.Recover(); err != nil {
			t.Fatalf("crash@%d: recover: %v", n, err)
		}
		if err := v2.CheckConsistency(0); err != nil {
			t.Fatalf("crash@%d: books do not balance: %v", n, err)
		}
	}
}

func TestWorksOnUndoEngine(t *testing.T) {
	pool := nvm.New(1 << 26)
	alloc, _ := pmem.Create(pool)
	eng, err := undolog.Create(pool, alloc, undolog.Options{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	var _ pds.Engine = eng
	v, err := New(eng, vacSlot, AVLTreeTables)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Populate(0, 10, 5); err != nil {
		t.Fatal(err)
	}
	for _, task := range GenTasks(100, 3, 10, 6) {
		if err := v.RunTask(0, task); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.CheckConsistency(0); err != nil {
		t.Fatal(err)
	}
}
