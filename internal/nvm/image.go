package nvm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
)

// SaveImage writes the durable view of the pool to path. Only
// flushed-and-fenced data is included, exactly as a DAX-mapped pool file
// would contain after a power loss. The caller must quiesce the pool first.
func (p *Pool) SaveImage(path string) error {
	if p.FastPath() {
		p.clearTracking()
	}
	img := p.mem
	if p.preImages() > 0 {
		img = p.Snapshot()
	}
	err := os.WriteFile(path, img, 0o644)
	runtime.KeepAlive(p)
	if err != nil {
		return fmt.Errorf("nvm: save image: %w", err)
	}
	return nil
}

// validateImage checks that an image of size bytes starting with data is a
// plausible pool image. data must hold at least the first line.
func validateImage(data []byte, size int64) error {
	if size < HeaderSize || size%LineSize != 0 {
		return fmt.Errorf("nvm: truncated pool image (%d bytes)", size)
	}
	if binary.LittleEndian.Uint64(data[magicOffset:]) != poolMagic {
		return fmt.Errorf("nvm: bad pool image magic")
	}
	return nil
}

// Snapshot returns a copy of the durable view — the coherent view with
// every dirty line's pre-image laid over it, the image a crash sweep
// restores between fault injections. The caller must quiesce the pool.
func (p *Pool) Snapshot() []byte {
	if p.FastPath() {
		p.clearTracking()
	}
	img := make([]byte, len(p.mem))
	copy(img, p.mem)
	runtime.KeepAlive(p)
	p.overlayPreImages(img)
	return img
}

// CoherentSnapshot returns a copy of the coherent (mem) view, i.e. what the
// CPU sees including not-yet-durable cache contents. Useful for asserting
// the persistent-cache contract (EvictAll must make Crash preserve exactly
// this image).
func (p *Pool) CoherentSnapshot() []byte {
	img := make([]byte, len(p.mem))
	copy(img, p.mem)
	runtime.KeepAlive(p)
	return img
}

// Restore resets the pool in place to a previously captured Snapshot: both
// views become the image (as after a reboot), the cache is clean, any armed
// crash is disarmed, the persist-point counters are zeroed and the pool
// returns to precise bookkeeping mode. Cumulative
// stats are preserved. The image size must match the pool size. The caller
// must quiesce the pool.
func (p *Pool) Restore(img []byte) error {
	if err := validateImage(img, int64(len(img))); err != nil {
		return fmt.Errorf("nvm: restore: %w", err)
	}
	if uint64(len(img)) != p.Size() {
		return fmt.Errorf("nvm: restore: image is %d bytes, pool is %d", len(img), p.Size())
	}
	copy(p.mem, img)
	runtime.KeepAlive(p)
	p.clearTracking()
	p.crashAt.Store(0)
	p.crashed.Store(false)
	p.ResetPersistPoints()
	return nil
}

// pageSize is the granule NewFromImage skips when it is all zeros: the
// kernel's page, which stays untouched, and so not resident, in a fresh
// array.
const pageSize = 4096

var zeroPage [pageSize]byte

// NewFromImage creates a pool whose coherent and durable views both equal
// the given image, as after a reboot. A fresh array is already zero, so
// only the image's nonzero pages are copied: a rebuilt pool is resident
// only where it holds data.
func NewFromImage(data []byte, opts ...Option) (*Pool, error) {
	if err := validateImage(data, int64(len(data))); err != nil {
		return nil, err
	}
	p := New(uint64(len(data)), opts...)
	for off := 0; off < len(data); off += pageSize {
		page := data[off:min(off+pageSize, len(data))]
		if !bytes.Equal(page, zeroPage[:len(page)]) {
			copy(p.mem[off:], page)
		}
	}
	return p, nil
}

// OpenImage loads a pool image previously written by SaveImage. The
// resulting pool's coherent and durable views both equal the saved durable
// view, as after a reboot. The file is read straight into the pool's
// array, so opening an image holds one copy of it, not two.
func OpenImage(path string, opts ...Option) (*Pool, error) {
	p, err := readImage(path, opts)
	if err != nil {
		return nil, fmt.Errorf("nvm: open image: %w", err)
	}
	return p, nil
}

func readImage(path string, opts []Option) (*Pool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var head [LineSize]byte
	if fi.Size() >= LineSize {
		if _, err := f.ReadAt(head[:], 0); err != nil {
			return nil, err
		}
	}
	if err := validateImage(head[:], fi.Size()); err != nil {
		return nil, err
	}
	p := New(uint64(fi.Size()), opts...)
	if _, err := io.ReadFull(f, p.mem[:fi.Size()]); err != nil {
		return nil, err
	}
	return p, nil
}
