package nvm

import (
	"encoding/binary"
	"fmt"
	"os"
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
	if err := os.WriteFile(path, img, 0o644); err != nil {
		return fmt.Errorf("nvm: save image: %w", err)
	}
	return nil
}

// validateImage checks that data is a plausible pool image.
func validateImage(data []byte) error {
	if len(data) < HeaderSize || uint64(len(data))%LineSize != 0 {
		return fmt.Errorf("nvm: truncated pool image (%d bytes)", len(data))
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
	return img
}

// Restore resets the pool in place to a previously captured Snapshot: both
// views become the image (as after a reboot), the cache is clean, any armed
// crash is disarmed, the persist-point counters are zeroed and the pool
// returns to precise bookkeeping mode. Cumulative
// stats are preserved. The image size must match the pool size. The caller
// must quiesce the pool.
func (p *Pool) Restore(img []byte) error {
	if err := validateImage(img); err != nil {
		return fmt.Errorf("nvm: restore: %w", err)
	}
	if uint64(len(img)) != p.Size() {
		return fmt.Errorf("nvm: restore: image is %d bytes, pool is %d", len(img), p.Size())
	}
	copy(p.mem, img)
	p.clearTracking()
	p.crashAt.Store(0)
	p.crashed.Store(false)
	p.ResetPersistPoints()
	return nil
}

// NewFromImage creates a pool whose coherent and durable views both equal
// the given image, as after a reboot.
func NewFromImage(data []byte, opts ...Option) (*Pool, error) {
	if err := validateImage(data); err != nil {
		return nil, err
	}
	p := New(uint64(len(data)), opts...)
	copy(p.mem, data)
	return p, nil
}

// OpenImage loads a pool image previously written by SaveImage. The
// resulting pool's coherent and durable views both equal the saved durable
// view, as after a reboot.
func OpenImage(path string, opts ...Option) (*Pool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("nvm: open image: %w", err)
	}
	p, err := NewFromImage(data, opts...)
	if err != nil {
		return nil, fmt.Errorf("nvm: open image: %w", err)
	}
	return p, nil
}
