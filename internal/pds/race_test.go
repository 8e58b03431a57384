//go:build race

package pds

// raceBuild says the race detector is on: sync.Pool then drops pooled
// values at random, so allocation counts mean nothing.
const raceBuild = true
