package yada

import (
	"errors"
	"math"
	"testing"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/undolog"
)

const meshSlot = 28

func TestGeometryPrimitives(t *testing.T) {
	a, b, c := Point{0, 0}, Point{1, 0}, Point{0, 1}
	if orient2d(a, b, c) <= 0 {
		t.Fatal("CCW triangle reported as CW")
	}
	cc, ok := circumcenter(a, b, c)
	if !ok {
		t.Fatal("circumcenter of right triangle undefined")
	}
	if math.Abs(cc.X-0.5) > 1e-9 || math.Abs(cc.Y-0.5) > 1e-9 {
		t.Fatalf("circumcenter = %+v, want (0.5, 0.5)", cc)
	}
	if !inCircumcircle(a, b, c, Point{0.4, 0.4}) {
		t.Fatal("interior point not in circumcircle")
	}
	if inCircumcircle(a, b, c, Point{5, 5}) {
		t.Fatal("far point in circumcircle")
	}
	if got := minAngleDeg(a, b, c); math.Abs(got-45) > 1e-6 {
		t.Fatalf("min angle = %v, want 45", got)
	}
	// Equilateral: 60 degrees.
	eq := minAngleDeg(Point{0, 0}, Point{1, 0}, Point{0.5, math.Sqrt(3) / 2})
	if math.Abs(eq-60) > 1e-6 {
		t.Fatalf("equilateral min angle = %v", eq)
	}
	if !encroaches(Point{0, 0}, Point{2, 0}, Point{1, 0.1}) {
		t.Fatal("near-midpoint point does not encroach")
	}
	if encroaches(Point{0, 0}, Point{2, 0}, Point{1, 5}) {
		t.Fatal("far point encroaches")
	}
	if _, ok := circumcenter(Point{0, 0}, Point{1, 1}, Point{2, 2}); ok {
		t.Fatal("collinear circumcenter defined")
	}
}

func newMesh(t *testing.T, maxPts int) (*nvm.Pool, *Mesh) {
	t.Helper()
	pool := nvm.New(1 << 26)
	alloc, err := pmem.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: 4, DataLogCap: 1 << 22}})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMesh(eng, meshSlot, maxPts)
	if err != nil {
		t.Fatal(err)
	}
	return pool, ms
}

func TestBootstrapTriangulation(t *testing.T) {
	_, ms := newMesh(t, 4096)
	pts := GenInput(50, 7)
	if err := ms.Bootstrap(0, pts); err != nil {
		t.Fatal(err)
	}
	st, err := ms.MeshStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 54 {
		t.Fatalf("points = %d, want 54", st.Points)
	}
	// Euler: a triangulation of the square with p points has
	// 2(p-1) - hull triangles; the hull here is the 4 corners, so
	// 2*54 - 2 - 4 = 102 triangles.
	if st.Triangles != 102 {
		t.Fatalf("triangles = %d, want 102", st.Triangles)
	}
	if err := ms.CheckMesh(0); err != nil {
		t.Fatal(err)
	}
}

func TestRefinementImprovesQuality(t *testing.T) {
	_, ms := newMesh(t, 1<<15)
	if err := ms.Bootstrap(0, GenInput(60, 11)); err != nil {
		t.Fatal(err)
	}
	const angle = 20.0
	before, err := ms.BadCount(0, angle)
	if err != nil {
		t.Fatal(err)
	}
	if before == 0 {
		t.Fatal("random mesh has no bad triangles; test is vacuous")
	}
	if err := ms.SeedQueue(0, angle); err != nil {
		t.Fatal(err)
	}
	steps, err := ms.RefineAll(0, angle, 20000)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ms.BadCount(0, angle)
	if err != nil {
		t.Fatal(err)
	}
	if after != 0 {
		t.Fatalf("after %d steps, %d bad triangles remain (was %d)", steps, after, before)
	}
	if err := ms.CheckMesh(0); err != nil {
		t.Fatal(err)
	}
	st, _ := ms.MeshStats(0)
	t.Logf("refined %d -> %d triangles in %d steps, min angle %.1f°",
		before, st.Triangles, steps, st.MinAngle)
}

func TestHigherConstraintMoreWork(t *testing.T) {
	work := func(angle float64) int {
		_, ms := newMesh(t, 1<<15)
		if err := ms.Bootstrap(0, GenInput(40, 13)); err != nil {
			t.Fatal(err)
		}
		if err := ms.SeedQueue(0, angle); err != nil {
			t.Fatal(err)
		}
		steps, err := ms.RefineAll(0, angle, 30000)
		if err != nil {
			t.Fatal(err)
		}
		return steps
	}
	low, high := work(15), work(28)
	if high <= low {
		t.Fatalf("28° took %d steps, 15° took %d — higher constraint should refine more", high, low)
	}
}

func TestCrashDuringRefinement(t *testing.T) {
	for n := int64(50); n <= 2000; n += 390 {
		pool := nvm.New(1<<26, nvm.WithEvictProbability(0.5), nvm.WithSeed(n))
		alloc, err := pmem.Create(pool)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: 4, DataLogCap: 1 << 22}})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := NewMesh(eng, meshSlot, 1<<15)
		if err != nil {
			t.Fatal(err)
		}
		if err := ms.Bootstrap(0, GenInput(30, 17)); err != nil {
			t.Fatal(err)
		}
		if err := ms.SeedQueue(0, 22); err != nil {
			t.Fatal(err)
		}
		// Run a few steps, then crash mid-step.
		for i := 0; i < 5; i++ {
			if _, err := ms.RefineStep(0, 22); err != nil {
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
			for i := 0; i < 200; i++ {
				if more, err := ms.RefineStep(0, 22); err != nil || !more {
					return
				}
			}
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
		ms2, err := NewMesh(eng2, meshSlot, 0)
		if err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		if _, err := eng2.Recover(); err != nil {
			t.Fatalf("crash@%d: recover: %v", n, err)
		}
		if err := ms2.CheckMesh(0); err != nil {
			t.Fatalf("crash@%d: mesh invalid after recovery: %v", n, err)
		}
		// Refinement must be able to continue to completion.
		if _, err := ms2.RefineAll(0, 22, 20000); err != nil {
			t.Fatalf("crash@%d: continue: %v", n, err)
		}
		bad, err := ms2.BadCount(0, 22)
		if err != nil || bad != 0 {
			t.Fatalf("crash@%d: %d bad triangles remain (err %v)", n, bad, err)
		}
	}
}

func TestWorksOnUndoEngine(t *testing.T) {
	pool := nvm.New(1 << 26)
	alloc, _ := pmem.Create(pool)
	eng, err := undolog.Create(pool, alloc, undolog.Options{Slots: 4, DataLogCap: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMesh(eng, meshSlot, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Bootstrap(0, GenInput(25, 23)); err != nil {
		t.Fatal(err)
	}
	if err := ms.SeedQueue(0, 18); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.RefineAll(0, 18, 10000); err != nil {
		t.Fatal(err)
	}
	bad, err := ms.BadCount(0, 18)
	if err != nil || bad != 0 {
		t.Fatalf("bad = %d (err %v)", bad, err)
	}
	if err := ms.CheckMesh(0); err != nil {
		t.Fatal(err)
	}
}
