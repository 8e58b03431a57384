package chassis

// Lines maps a cache-line index to the running transaction's access flags
// for the line's eight 8-byte words, packed into one uint32: bits 0–7 mark
// inputs (words read before the transaction wrote them), 8–15 stored words,
// 16–23 logged words. Dirty lists the lines holding a stored word, in
// first-store order, for the commit-time flush. Clobber uses all three
// classes, the undo engines stored and logged words, atlas the dirty list.
//
// It is a small open-addressing hash table rather than a Go map because it
// sits on the transaction's hot path: the real Clobber-NVM identifies
// clobber writes at compile time and pays nothing per load at run time, so
// the run-time stand-in must be as close to free as possible or it would
// distort the engine comparison. A whole line in one value makes a store of
// any length one probe per line.
//
// Linear probing, power-of-two capacity, grow at 75% load; keys are line
// indexes stored +1. A slot reuses its table across transactions: an entry
// is live only while its generation stamp matches the table's, so Reset is
// O(1) instead of a clear of the whole capacity (one large transaction
// would otherwise tax every later one of the slot with a multi-KB memclr).
// Reset before first use.
type Lines struct {
	keys  []uint64
	vals  []uint32
	gen   []uint32
	cur   uint32
	n     int
	mask  uint64
	Dirty []uint64
}

// Flag-field shifts of a line's value: logged<<16 | stored<<8 | input.
const (
	StoredShift = 8
	LoggedShift = 16
)

const linesInitial = 256

// Reset empties the table for a new transaction, keeping the allocation.
// Bumping the generation invalidates every entry at once; the rare
// wraparound falls back to a full clear so stale stamps can never alias.
func (t *Lines) Reset() {
	if t.keys == nil {
		t.keys = make([]uint64, linesInitial)
		t.vals = make([]uint32, linesInitial)
		t.gen = make([]uint32, linesInitial)
		t.mask = linesInitial - 1
	}
	t.cur++
	if t.cur == 0 {
		clear(t.keys)
		clear(t.gen)
		t.cur = 1
	}
	t.n = 0
	t.Dirty = t.Dirty[:0]
}

// Len returns the number of lines in the table.
func (t *Lines) Len() int { return t.n }

func mixHash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

// At returns the flags of line, adding the line with no flags if it is
// absent. The pointer is valid until the next line is added.
func (t *Lines) At(line uint64) *uint32 {
	k := line + 1
	i := mixHash(k) & t.mask
	for {
		if t.gen[i] != t.cur {
			t.keys[i] = k
			t.vals[i] = 0
			t.gen[i] = t.cur
			t.n++
			if t.n*4 > len(t.keys)*3 {
				t.grow()
				return t.At(line)
			}
			return &t.vals[i]
		}
		if t.keys[i] == k {
			return &t.vals[i]
		}
		i = (i + 1) & t.mask
	}
}

// MarkStored marks the words of wmask stored and returns the line's previous
// flags. The line joins Dirty with its first stored word.
func (t *Lines) MarkStored(line uint64, wmask uint32) uint32 {
	v := t.At(line)
	old := *v
	*v = old | wmask<<StoredShift
	if old&(0xff<<StoredShift) == 0 {
		t.Dirty = append(t.Dirty, line)
	}
	return old
}

// MarkLogged marks the words of wmask logged.
func (t *Lines) MarkLogged(line uint64, wmask uint32) {
	*t.At(line) |= wmask << LoggedShift
}

func (t *Lines) grow() {
	oldKeys, oldVals, oldGen := t.keys, t.vals, t.gen
	t.keys = make([]uint64, len(oldKeys)*2)
	t.vals = make([]uint32, len(oldVals)*2)
	t.gen = make([]uint32, len(oldKeys)*2)
	t.mask = uint64(len(t.keys) - 1)
	t.n = 0
	for i, k := range oldKeys {
		if oldGen[i] != t.cur {
			continue
		}
		j := mixHash(k) & t.mask
		for t.gen[j] == t.cur {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = oldVals[i]
		t.gen[j] = t.cur
		t.n++
	}
}

// Words maps the 8-byte-word range [u1, u2], restricted to line l, onto a
// mask of the line's words.
func Words(l, u1, u2 uint64) uint32 {
	lo, hi := uint64(0), uint64(7)
	if l == u1>>3 {
		lo = u1 & 7
	}
	if l == u2>>3 {
		hi = u2 & 7
	}
	return uint32(0xff) >> (7 - (hi - lo)) << lo
}
