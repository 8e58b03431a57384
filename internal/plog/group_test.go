package plog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/txn"
)

// formats runs a test body on a fresh log of each on-media format.
var formats = []struct {
	name   string
	format func(p Pool, slot int, base, capacity uint64) *DataLog
}{
	{"legacy", FormatDataLog},
	{"line", FormatDataLogLine},
}

// groupEntry is the i-th entry of the group tests: 64 payload bytes, so no
// two entries start in one cache line in either format.
func groupEntry(i int) Entry {
	return Entry{Addr: 0x1000 * uint64(i+1), Data: bytes.Repeat([]byte{byte('a' + i)}, 64)}
}

// appendGroup appends entries as one group and fences it, the way a
// declared batch is logged.
func appendGroup(t *testing.T, p *nvm.Pool, l *DataLog, seq uint64, entries []Entry) {
	t.Helper()
	opts := AppendOptions{NoFence: true, Group: l.GroupTag()}
	for _, e := range entries {
		if _, err := l.Append(seq, e.Addr, e.Data, opts); err != nil {
			t.Fatal(err)
		}
	}
	p.Fence()
}

// entryLine returns the pool address of the cache line holding the start of
// the log's next entry.
func entryLine(l *DataLog) uint64 {
	if l.line {
		return l.area + l.lineIdx*LineSize
	}
	return (l.base + l.off) &^ (LineSize - 1)
}

// TestGroupTornFirstEntryScansAsPrefix: a crash before a group's fence may
// keep its later entries and lose its first. Nothing the group protects has
// been stored yet, so the scan must end at the lost entry, with the fenced
// entry before it intact and no corruption verdict.
func TestGroupTornFirstEntryScansAsPrefix(t *testing.T) {
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			p := newPool(t)
			base := p.HeapBase()
			l := f.format(p, 2, base, 4096)
			l.Reset()
			fenced := groupEntry(0)
			if _, err := l.Append(5, fenced.Addr, fenced.Data, AppendOptions{}); err != nil {
				t.Fatal(err)
			}
			// The first group entry's line as the media held it before the
			// group: the line is what the crash loses.
			line := entryLine(l)
			var before [LineSize]byte
			p.Load(line, before[:])
			appendGroup(t, p, l, 5, []Entry{groupEntry(1), groupEntry(2), groupEntry(3)})
			p.Store(line, before[:])
			p.Persist(line, LineSize)
			p.Crash()

			l2, err := AttachDataLog(p, 2, base)
			if err != nil {
				t.Fatal(err)
			}
			got, err := l2.ScanStrict(5)
			if err != nil {
				t.Fatalf("a torn group convicted as corruption: %v", err)
			}
			if len(got) != 1 || got[0].Addr != fenced.Addr || !bytes.Equal(got[0].Data, fenced.Data) {
				t.Fatalf("scan = %d entries, want the fenced one alone", len(got))
			}
		})
	}
}

// TestGroupDamageBeforeLaterFenceIsCorruption: an entry of a group whose
// fence completed can be invalid only through damage after the fence. A
// valid entry after it that is no member of its group proves that, and the
// strict scan must still say so — whether the next append was a group or a
// single entry. The line format validates per line, not per fence, and
// never convicts: there the damage ends the scan.
func TestGroupDamageBeforeLaterFenceIsCorruption(t *testing.T) {
	for _, f := range formats {
		for _, nextGroup := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/next-group=%v", f.name, nextGroup), func(t *testing.T) {
				p := newPool(t)
				base := p.HeapBase()
				l := f.format(p, 2, base, 4096)
				l.Reset()
				appendGroup(t, p, l, 5, []Entry{groupEntry(0)})
				// The group's first entry: its payload in the legacy format;
				// in the line format, the line its payload runs on into.
				damaged := l.base + l.off + entryHeaderSize
				if l.line {
					damaged = entryLine(l) + LineSize + 8
				}
				appendGroup(t, p, l, 5, []Entry{groupEntry(1), groupEntry(2), groupEntry(3)})
				if nextGroup {
					appendGroup(t, p, l, 5, []Entry{groupEntry(4), groupEntry(5)})
				} else if _, err := l.Append(5, groupEntry(4).Addr, groupEntry(4).Data, AppendOptions{}); err != nil {
					t.Fatal(err)
				}
				p.Store64(damaged, ^p.Load64(damaged))
				p.Persist(damaged, 8)
				p.Crash()

				l2, err := AttachDataLog(p, 2, base)
				if err != nil {
					t.Fatal(err)
				}
				got, err := l2.ScanStrict(5)
				if l2.line {
					if err != nil || len(got) != 1 {
						t.Fatalf("line format: scan = %d entries, %v; want the one before the damage", len(got), err)
					}
					return
				}
				if !errors.Is(err, txn.ErrCorruptLog) {
					t.Fatalf("damage inside a fenced group passed the strict scan: %d entries, %v", len(got), err)
				}
			})
		}
	}
}

// TestGroupSingleEntryKeepsItsBytes: a group tag is written only where it
// is needed; an entry appended outside a group keeps the bytes it had before
// groups existed — a zero tag word and a checksum that does not mix it.
func TestGroupSingleEntryKeepsItsBytes(t *testing.T) {
	p := newPool(t)
	l := FormatDataLog(p, 2, p.HeapBase(), 4096)
	l.Reset()
	e := groupEntry(0)
	if _, err := l.Append(5, e.Addr, e.Data, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	if tag := p.Load64(l.base+16) >> 32; tag != 0 {
		t.Fatalf("single entry carries group tag %d", tag)
	}
	sum := p.Load64(l.base + entryHeaderSize + uint64(len(e.Data)))
	if want := checksum(5, e.Addr, 2, e.Data); sum != want {
		t.Fatalf("single entry checksum %#x, want %#x", sum, want)
	}
	if tag := l.GroupTag(); tag == 0 {
		t.Fatal("GroupTag returned the no-group tag")
	}
}

// TestGroupCrashAtEveryPersistPoint crashes a fenced entry followed by two
// fenced groups at every persist point under the torn-line and random
// eviction adversaries. At every point the strict scan must return an exact
// prefix of the entries with no corruption verdict, and keep every entry
// whose fence completed.
func TestGroupCrashAtEveryPersistPoint(t *testing.T) {
	groups := [][]Entry{
		{groupEntry(0)},
		{groupEntry(1), {Addr: 0x7000, Data: []byte("short")}, groupEntry(2)},
		{groupEntry(3), groupEntry(4)},
	}
	var full []Entry
	for _, g := range groups {
		full = append(full, g...)
	}
	for _, f := range formats {
		run := func(policy nvm.EvictPolicy, seed, point int64) (got []Entry, fenced int, points int64) {
			p := nvm.New(1<<20, nvm.WithEviction(policy), nvm.WithSeed(seed))
			base := p.HeapBase()
			l := f.format(p, 1, base, 1<<14)
			l.Reset()
			p.ResetPersistPoints()
			if point > 0 {
				p.ScheduleCrashAt(nvm.CrashAtAny, point)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						if e, ok := r.(error); !ok || !errors.Is(e, nvm.ErrCrash) {
							panic(r)
						}
					}
				}()
				for _, g := range groups {
					appendGroup(t, p, l, 3, g)
					fenced += len(g)
				}
			}()
			points = p.PersistPoints(nvm.CrashAtAny)
			p.ScheduleCrashAt(nvm.CrashAtAny, 0)
			p.Crash()
			l2, err := AttachDataLog(p, 1, base)
			if err != nil {
				t.Fatalf("%s point %d: attach: %v", f.name, point, err)
			}
			got, err = l2.ScanStrict(3)
			if err != nil {
				t.Fatalf("%s %v point %d: a pure power failure convicted: %v", f.name, policy, point, err)
			}
			return got, fenced, points
		}
		_, _, points := run(nvm.EvictNone, 1, 0)
		for _, policy := range []nvm.EvictPolicy{nvm.EvictTorn, nvm.EvictRandom} {
			for point := int64(1); point <= points; point++ {
				got, fenced, _ := run(policy, point*11+int64(policy), point)
				if len(got) < fenced || len(got) > len(full) {
					t.Fatalf("%s %v point %d: %d entries survived, %d fenced", f.name, policy, point, len(got), fenced)
				}
				for i, e := range got {
					if e.Addr != full[i].Addr || !bytes.Equal(e.Data, full[i].Data) {
						t.Fatalf("%s %v point %d: entry %d corrupted", f.name, policy, point, i)
					}
				}
			}
		}
	}
}
