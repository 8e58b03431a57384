//go:build !linux || race

package nvm

// mapping is empty where pools live on the Go heap: off Linux, and under the
// race detector, which ignores memory outside Go's heap and data segments
// and so would miss every access to a mapped pool.
type mapping struct{}

// newPoolMem makes a zeroed heap array of size bytes.
func newPoolMem(size uint64) ([]byte, *mapping) { return make([]byte, size), nil }
