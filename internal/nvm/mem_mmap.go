//go:build linux && !race

package nvm

import (
	"fmt"
	"runtime"
	"syscall"
)

// mapping is one anonymous private mapping backing a pool's array, the
// paper's DAX-mapped pool file minus the file. It points at nothing on the
// Go heap, so it is never part of a reference cycle: once its pool is
// unreachable, so is the mapping, and the finalizer unmaps the pages even
// when the pool itself sits in a cycle.
//
// The kernel zero-fills the pages lazily, 4 KiB at a time, on first touch:
// a pool is resident only where it has been written or read, and the
// collector neither counts nor paces on it.
type mapping struct{ b []byte }

// newPoolMem maps a zeroed array of size bytes. Callers keep the returned
// mapping reachable for as long as they use the array.
func newPoolMem(size uint64) ([]byte, *mapping) {
	b, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("nvm: map a %d-byte pool: %v", size, err))
	}
	// Keep first touch at 4 KiB whatever the system's transparent huge page
	// setting: a huge page would make a sparsely written pool resident 2 MiB
	// at a time. Advice is best effort; a kernel without THP refuses it.
	_ = syscall.Madvise(b, syscall.MADV_NOHUGEPAGE)
	m := &mapping{b: b}
	mappedBytes.Add(int64(len(b)))
	runtime.SetFinalizer(m, (*mapping).release)
	return b, m
}

func (m *mapping) release() {
	if err := syscall.Munmap(m.b); err != nil {
		panic(fmt.Sprintf("nvm: unmap a %d-byte pool: %v", len(m.b), err))
	}
	mappedBytes.Add(-int64(len(m.b)))
}
