package nvm

import (
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestPoolBacking pins the backing of a pool's array to the build: an
// anonymous mapping on linux outside race builds, the Go heap otherwise.
// The race detector ignores memory outside Go's heap, so race builds must
// keep the heap array for their pool-byte accesses to be checked at all.
func TestPoolBacking(t *testing.T) {
	const size = 16 << 20
	wantMapped := runtime.GOOS == "linux" && !raceBuild
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mapped := mappedBytes.Load()
	p := New(size)
	mapped = mappedBytes.Load() - mapped
	runtime.ReadMemStats(&after)
	heap := after.TotalAlloc - before.TotalAlloc
	if wantMapped {
		if p.backing == nil || mapped != size || heap >= size {
			t.Fatalf("want a mapped pool: backing %v, %d bytes mapped, %d allocated on the heap", p.backing, mapped, heap)
		}
	} else if p.backing != nil || mapped != 0 || heap < size {
		t.Fatalf("want a heap pool: backing %v, %d bytes mapped, %d allocated on the heap", p.backing, mapped, heap)
	}
	runtime.KeepAlive(p)
}

// TestMappedPoolsAreReleased drops pools, rebuilt ones and ones with group
// commit on among them, and demands that the collector unmaps every one:
// the mapped-byte count must come back to where it started.
func TestMappedPoolsAreReleased(t *testing.T) {
	if New(HeaderSize+LineSize).backing == nil {
		t.Skip("pools live on the Go heap in this build: nothing is mapped")
	}
	rounds := 1000
	if testing.Short() {
		rounds = 100
	}
	start := settledMappedBytes()
	for i := 0; i < rounds; i++ {
		p := New(1<<20, WithSeed(int64(i)), WithEviction(EvictTorn))
		if i%2 == 1 {
			p.GroupCommit(DefaultGroupCommitWaiters, DefaultGroupCommitDelayNS)
		}
		a := p.HeapBase() + uint64(i%64)*LineSize
		p.Store64(a, uint64(i))
		p.FlushOpt(a, 8)
		p.CommitFence()
		p.Store64(a+8, uint64(i)) // left dirty for the crash
		img := p.Snapshot()
		p.Crash()
		q, err := NewFromImage(img, WithSeed(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		q.Store64(a+16, uint64(i))
		if err := q.Restore(img); err != nil {
			t.Fatal(err)
		}
		if got := q.Load64(a); got != uint64(i) {
			t.Fatalf("round %d: restored pool holds %d, want %d", i, got, i)
		}
	}
	if n := settledMappedBytes(); n != start {
		t.Fatalf("%d mapped bytes after %d rounds, want %d", n, rounds, start)
	}
}

// settledMappedBytes collects garbage until the mapped-byte count holds
// still, and returns it. Finalizers run after a cycle, on their own
// goroutine, so one runtime.GC is not enough to see them.
func settledMappedBytes() int64 {
	n := mappedBytes.Load()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		m := mappedBytes.Load()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// residentBytes reads this process's resident set from /proc/self/statm.
func residentBytes(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatal(err)
	}
	f := strings.Fields(string(b))
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return pages * int64(os.Getpagesize())
}

// TestNewFromImageSkipsZeroPages rebuilds a 64 MiB mapped pool from an
// image holding about 1 MiB of data, one page in every 64, and demands that
// the rebuild makes under 8 MiB resident: the zero pages are never touched,
// and each data page faults in at 4 KiB, not as a huge page.
func TestNewFromImageSkipsZeroPages(t *testing.T) {
	if New(HeaderSize+LineSize).backing == nil {
		t.Skip("pools live on the Go heap in this build")
	}
	const size, stride = 64 << 20, 64 * pageSize
	img := make([]byte, size)
	clear(img) // resident before the measurement, not during it
	binary.LittleEndian.PutUint64(img[magicOffset:], poolMagic)
	for off := stride; off < size; off += stride {
		for w := 0; w < pageSize; w += 8 {
			binary.LittleEndian.PutUint64(img[off+w:], uint64(off+w))
		}
	}
	before := residentBytes(t)
	p, err := NewFromImage(img)
	grown := residentBytes(t) - before
	if err != nil {
		t.Fatal(err)
	}
	if grown >= 8<<20 {
		t.Fatalf("rebuilding a 64 MiB pool holding 1 MiB grew the resident set by %d bytes, want < 8 MiB", grown)
	}
	for off := uint64(stride); off < size; off += stride {
		if got := p.Load64(off + 8); got != off+8 {
			t.Fatalf("rebuilt pool holds %#x at %#x, want %#x", got, off+8, off+8)
		}
	}
}

// TestPoolMethodsKeepPoolAlive is a source-level guard. A mapped pool's
// finalizer may unmap the array as soon as the pool is unreachable, and a
// method's receiver is unreachable after its last use, possibly in the
// middle of a copy through p.mem. So every *Pool method that indexes,
// slices or hands on p.mem must call runtime.KeepAlive on its receiver
// after its last use of p.mem, before each way out of the method.
func TestPoolMethodsKeepPoolAlive(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := map[string]bool{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil || len(fn.Recv.List[0].Names) == 0 {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); !ok || !isIdent(star.X, "Pool") {
				continue
			}
			recv := fn.Recv.List[0].Names[0].Name
			uses, keeps, exits := memUses(fn.Body, recv)
			if len(uses) == 0 {
				continue
			}
			checked[fn.Name.Name] = true
			for _, u := range uses {
				for _, e := range exits {
					if e <= u {
						continue
					}
					kept := false
					for _, k := range keeps {
						kept = kept || (u < k && k < e)
					}
					if !kept {
						t.Errorf("%s: (*Pool).%s uses %s.mem at line %d with no runtime.KeepAlive(%s) before its exit at line %d",
							name, fn.Name.Name, recv, fset.Position(u).Line, recv, fset.Position(e).Line)
					}
				}
			}
		}
	}
	// The guard must see the methods that touch the array, or it checks
	// nothing.
	for _, m := range []string{"Load", "Load64", "storeBytes", "Store64", "CAS64", "Crash", "SaveImage", "Snapshot", "Restore"} {
		if !checked[m] {
			t.Errorf("guard found no use of p.mem in (*Pool).%s", m)
		}
	}
}

// memUses returns, for a method body with receiver recv, the positions of
// its uses of recv.mem other than len(recv.mem), of its
// runtime.KeepAlive(recv) calls, and of its exits: the end of each return
// statement and the closing brace.
func memUses(body *ast.BlockStmt, recv string) (uses, keeps, exits []token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isIdent(n.Fun, "len") && len(n.Args) == 1 && isMem(n.Args[0], recv) {
				return false
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isIdent(sel.X, "runtime") &&
				sel.Sel.Name == "KeepAlive" && len(n.Args) == 1 && isIdent(n.Args[0], recv) {
				keeps = append(keeps, n.Pos())
			}
		case *ast.SelectorExpr:
			if isMem(n, recv) {
				uses = append(uses, n.Pos())
			}
		case *ast.ReturnStmt:
			exits = append(exits, n.End())
		}
		return true
	})
	return uses, keeps, append(exits, body.Rbrace)
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isMem(e ast.Expr, recv string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "mem" && isIdent(sel.X, recv)
}
