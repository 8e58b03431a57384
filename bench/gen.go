package main

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand"
)

// mix is splitmix64: a bijection on uint64, so distinct key indexes give
// distinct keys and the same seed always gives the same keys.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// keygen turns key indexes into keys and (index, version) pairs into
// self-describing values, all as a pure function of the seed.
type keygen struct {
	salt    uint64
	keySize int
	valSize int
	// text makes keys printable (hex), as the memcached text protocol needs.
	text bool
}

func newKeygen(seed int64, keySize, valSize int, text bool) keygen {
	return keygen{salt: mix(uint64(seed)), keySize: keySize, valSize: valSize, text: text}
}

// key writes the key of index idx into dst[:keySize] and returns it.
func (g keygen) key(dst []byte, idx uint64) []byte {
	dst = dst[:g.keySize]
	h := mix(idx + g.salt)
	for off := 0; off < g.keySize; h = mix(h) {
		var raw [8]byte
		binary.LittleEndian.PutUint64(raw[:], h)
		if g.text {
			var hx [16]byte
			hex.Encode(hx[:], raw[:])
			off += copy(dst[off:], hx[:])
		} else {
			off += copy(dst[off:], raw[:])
		}
	}
	return dst
}

// fillWord is the word every 8-byte cell after the header of a value holds.
func (g keygen) fillWord(idx, ver uint64) uint64 {
	return mix(mix(idx^g.salt) + ver)
}

// value writes the value for (idx, ver) into dst[:valSize]:
// [idx][ver][fill word...]. A reader can check any value it gets back
// without knowing which version to expect.
func (g keygen) value(dst []byte, idx, ver uint64) []byte {
	dst = dst[:g.valSize]
	binary.LittleEndian.PutUint64(dst[0:], idx)
	binary.LittleEndian.PutUint64(dst[8:], ver)
	w := g.fillWord(idx, ver)
	for off := 16; off+8 <= len(dst); off += 8 {
		binary.LittleEndian.PutUint64(dst[off:], w)
	}
	return dst
}

// parse checks that v is a well-formed value of key idx and returns the
// version it carries.
func (g keygen) parse(v []byte, idx uint64) (ver uint64, ok bool) {
	if len(v) != g.valSize || binary.LittleEndian.Uint64(v) != idx {
		return 0, false
	}
	ver = binary.LittleEndian.Uint64(v[8:])
	w := g.fillWord(idx, ver)
	for off := 16; off+8 <= len(v); off += 8 {
		if binary.LittleEndian.Uint64(v[off:]) != w {
			return 0, false
		}
	}
	return ver, true
}

// picker draws key ranks in [0, n): uniform, or zipfian with s = 1.1 (rank 0
// hottest).
type picker struct {
	rng  *rand.Rand
	n    int
	zipf *rand.Zipf
}

func newPicker(rng *rand.Rand, n int, zipfian bool) *picker {
	p := &picker{rng: rng, n: n}
	if zipfian && n > 1 {
		p.zipf = rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	}
	return p
}

func (p *picker) next() int {
	if p.zipf != nil {
		return int(p.zipf.Uint64())
	}
	return p.rng.Intn(p.n)
}
