package plog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/txn"
)

// --- Line-writer basics -----------------------------------------------------

func TestLineLogAppendScan(t *testing.T) {
	p := newPool(t)
	l := FormatDataLogLine(p, 3, p.HeapBase(), 4096)
	if !l.LineWriter() {
		t.Fatal("FormatDataLogLine did not set line mode")
	}

	l.Reset()
	payloads := [][]byte{
		[]byte("old-value-a"),       // small, pads to 2 words
		[]byte("b"),                 // tiny
		make([]byte, 200),           // multi-line, straddles 4+ lines
		[]byte("exactly-8"),         // 9 bytes
		make([]byte, lineDataBytes), // one header word + 7 payload words: > 1 line
		{},                          // empty payload
	}
	for i := range payloads[2] {
		payloads[2][i] = byte(i * 7)
	}
	for i, pl := range payloads {
		if _, err := l.Append(9, 0x1000*uint64(i+1), pl, AppendOptions{}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if l.EntryCount() != len(payloads) {
		t.Fatalf("EntryCount = %d", l.EntryCount())
	}
	got := l.Scan(9)
	if len(got) != len(payloads) {
		t.Fatalf("Scan = %d entries, want %d", len(got), len(payloads))
	}
	for i, e := range got {
		if e.Addr != 0x1000*uint64(i+1) || !bytes.Equal(e.Data, payloads[i]) {
			t.Fatalf("entry %d = {%#x, %d bytes}", i, e.Addr, len(e.Data))
		}
	}
	if n := len(l.Scan(10)); n != 0 {
		t.Fatalf("Scan(wrong seq) = %d entries", n)
	}
}

func TestLineLogAttachAutodetect(t *testing.T) {
	p := newPool(t)
	base := p.HeapBase()
	l := FormatDataLogLine(p, 1, base, 4096)
	l.Reset()
	if _, err := l.Append(7, 0x99, []byte("durable"), AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	l2, err := AttachDataLog(p, 1, base)
	if err != nil {
		t.Fatal(err)
	}
	if !l2.LineWriter() {
		t.Fatal("attach did not detect line mode from the magic")
	}
	got := l2.Scan(7)
	if len(got) != 1 || !bytes.Equal(got[0].Data, []byte("durable")) {
		t.Fatalf("entries lost on crash: %+v", got)
	}
}

// TestLineLogSmallAppendSingleFlush pins the tentpole's cost claim: a small
// fenced append in line mode flushes one line (two only when the packed
// entry straddles a boundary), where the legacy format's separate
// header+payload+trailer image plus next-header terminator regularly spans
// two lines — so the write-combined stream flushes strictly fewer lines
// over any run of small appends.
func TestLineLogSmallAppendSingleFlush(t *testing.T) {
	p := newPool(t)
	l := FormatDataLogLine(p, 0, p.HeapBase(), 1<<16)
	l.Reset()
	lineFlushes := int64(0)
	const appends = 32
	for i := 0; i < appends; i++ {
		s0 := p.Stats()
		if _, err := l.Append(1, uint64(i)*8, []byte("12345678"), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
		d := p.Stats().Sub(s0)
		if d.Fences != 1 {
			t.Fatalf("append %d: %d fences", i, d.Fences)
		}
		if d.FlushOpts < 1 || d.FlushOpts > 2 {
			t.Fatalf("append %d: %d line flushes, want 1 (2 when straddling)", i, d.FlushOpts)
		}
		lineFlushes += d.FlushOpts
	}

	p2 := newPool(t)
	legacy := FormatDataLog(p2, 0, p2.HeapBase(), 1<<16)
	legacy.Reset()
	legacyFlushes := int64(0)
	for i := 0; i < appends; i++ {
		s0 := p2.Stats()
		if _, err := legacy.Append(1, uint64(i)*8, []byte("12345678"), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
		legacyFlushes += p2.Stats().Sub(s0).FlushOpts
	}
	if lineFlushes >= legacyFlushes {
		t.Fatalf("line writer flushed %d lines, legacy %d — no saving", lineFlushes, legacyFlushes)
	}
}

func TestLineLogBatchSingleFenceSharedLines(t *testing.T) {
	p := newPool(t)
	l := FormatDataLogLine(p, 0, p.HeapBase(), 1<<16)
	l.Reset()
	batch := []BatchEntry{
		{Addr: 0x10, Data: []byte("aaaaaaaa")},
		{Addr: 0x20, Data: []byte("bbbbbbbb")},
		{Addr: 0x30, Data: []byte("cccccccc")},
	}
	s0 := p.Stats()
	if _, err := l.AppendBatch(5, batch, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	d := p.Stats().Sub(s0)
	if d.Fences != 1 {
		t.Fatalf("batch issued %d fences", d.Fences)
	}
	// 3 entries x 2 words = 6 words: one line plus the sealed spill, so at
	// most 2 line flushes — adjacent entries must share emissions.
	if d.FlushOpts > 2 {
		t.Fatalf("batch of 3 small entries flushed %d lines", d.FlushOpts)
	}
	got := l.Scan(5)
	if len(got) != 3 {
		t.Fatalf("Scan = %d entries", len(got))
	}
}

func TestLineLogCapacityAndLimits(t *testing.T) {
	p := newPool(t)
	l := FormatDataLogLine(p, 0, p.HeapBase(), 256)
	l.Reset()
	if _, err := l.Append(1, 0, make([]byte, 100), AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, 0, make([]byte, 200), AppendOptions{}); !errors.Is(err, ErrLogFull) {
		t.Fatalf("over-capacity append: %v", err)
	}
	big := FormatDataLogLine(p, 0, p.HeapBase()+4096, 1<<20)
	big.Reset()
	if _, err := big.Append(1, 0, make([]byte, maxLineEntryLen+1), AppendOptions{}); err == nil {
		t.Fatal("oversized payload accepted by line writer")
	}
	if _, err := big.Append(1, uint64(maxLineEntryAddr)+1, []byte("x"), AppendOptions{}); err == nil {
		t.Fatal("49-bit address accepted by line writer")
	}
}

func TestLineLogInvalidateAndSeqReuse(t *testing.T) {
	p := newPool(t)
	base := p.HeapBase()
	l := FormatDataLogLine(p, 2, base, 4096)
	l.Reset()
	for i := 0; i < 5; i++ {
		if _, err := l.Append(4, uint64(i), []byte("stale-entry-data"), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	l.Invalidate()
	if n := len(l.Scan(4)); n != 0 {
		t.Fatalf("Scan after Invalidate = %d entries", n)
	}
	// Reuse the same sequence: only the new entry may be visible, even
	// though stale same-sequence lines sit beyond the first.
	if _, err := l.Append(4, 0xAA, []byte("fresh"), AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	l2, err := AttachDataLog(p, 2, base)
	if err != nil {
		t.Fatal(err)
	}
	got := l2.Scan(4)
	if len(got) != 1 || got[0].Addr != 0xAA || !bytes.Equal(got[0].Data, []byte("fresh")) {
		t.Fatalf("stale entries resurrected after Invalidate+reuse: %+v", got)
	}
}

// --- Line-granularity crash tests -------------------------------------------

// lineCrashWorkload is the deterministic append mix the persist-point sweep
// replays: small entries sharing lines, a line-exact entry, and a multi-line
// entry, all fenced.
func lineCrashWorkload() []Entry {
	big := make([]byte, 180)
	for i := range big {
		big[i] = byte(i*13 + 1)
	}
	return []Entry{
		{Addr: 0x100, Data: []byte("alpha")},
		{Addr: 0x200, Data: []byte("beta-beta")},
		{Addr: 0x300, Data: big},
		{Addr: 0x400, Data: []byte("g")},
		{Addr: 0x500, Data: make([]byte, 48)},
		{Addr: 0x600, Data: []byte("last-entry")},
	}
}

// runLineCrash replays the workload on a fresh pool, crashing at the given
// persist point (0 = never). It returns the post-crash scan and how many
// appends had fully completed (fence returned) before the crash fired.
func runLineCrash(t *testing.T, policy nvm.EvictPolicy, seed, point int64) (got []Entry, completed int) {
	t.Helper()
	p := nvm.New(1<<20, nvm.WithEviction(policy), nvm.WithSeed(seed))
	base := p.HeapBase()
	l := FormatDataLogLine(p, 1, base, 1<<16)
	l.Reset()
	p.ResetPersistPoints()
	if point > 0 {
		p.ScheduleCrashAt(nvm.CrashAtAny, point)
	}
	fired := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				e, ok := r.(error)
				if !ok || !errors.Is(e, nvm.ErrCrash) {
					panic(r)
				}
				fired = true
			}
		}()
		for _, e := range lineCrashWorkload() {
			if _, err := l.Append(3, e.Addr, e.Data, AppendOptions{}); err != nil {
				t.Fatal(err)
			}
			completed++
		}
	}()
	if point > 0 && !fired {
		t.Fatalf("point %d never fired", point)
	}
	p.ScheduleCrashAt(nvm.CrashAtAny, 0)
	p.Crash()
	l2, err := AttachDataLog(p, 1, base)
	if err != nil {
		t.Fatalf("point %d: attach: %v", point, err)
	}
	return l2.Scan(3), completed
}

// TestLineLogCrashAtEveryPersistPoint crashes the line writer at every
// single persist point of a mixed workload under the torn-line and random
// eviction adversaries. At every point the surviving scan must be an exact
// prefix of the full entry list (validity words make torn lines
// self-detecting), and every append whose fence completed must survive.
func TestLineLogCrashAtEveryPersistPoint(t *testing.T) {
	full := lineCrashWorkload()
	// Reference run counts the persist points.
	p := nvm.New(1 << 20)
	l := FormatDataLogLine(p, 1, p.HeapBase(), 1<<16)
	l.Reset()
	p.ResetPersistPoints()
	for _, e := range full {
		if _, err := l.Append(3, e.Addr, e.Data, AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	points := p.PersistPoints(nvm.CrashAtAny)
	if points == 0 {
		t.Fatal("no persist points")
	}
	for _, policy := range []nvm.EvictPolicy{nvm.EvictTorn, nvm.EvictRandom, nvm.EvictNone, nvm.EvictAll} {
		for point := int64(1); point <= points; point++ {
			got, completed := runLineCrash(t, policy, point*7+int64(policy), point)
			if len(got) > len(full) {
				t.Fatalf("%v point %d: %d entries from %d appends", policy, point, len(got), len(full))
			}
			if len(got) < completed {
				t.Fatalf("%v point %d: fenced append lost: %d survived, %d completed",
					policy, point, len(got), completed)
			}
			for i, e := range got {
				if e.Addr != full[i].Addr || !bytes.Equal(e.Data, full[i].Data) {
					t.Fatalf("%v point %d: entry %d corrupted: {%#x, %d bytes}",
						policy, point, i, e.Addr, len(e.Data))
				}
			}
		}
	}
}

// TestLineLogScanStrictNeverFalselyConvicts: line-mode appends are weakly
// flushed per line, so eviction luck legitimately persists later lines
// without earlier ones; ScanStrict must degrade to a plain prefix scan with
// no corruption verdict at any crash point.
func TestLineLogScanStrictNeverFalselyConvicts(t *testing.T) {
	p := nvm.New(1<<20, nvm.WithEviction(nvm.EvictTorn), nvm.WithSeed(11))
	base := p.HeapBase()
	l := FormatDataLogLine(p, 1, base, 1<<16)
	l.Reset()
	for _, e := range lineCrashWorkload() {
		if _, err := l.Append(3, e.Addr, e.Data, AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	p.Crash()
	l2, err := AttachDataLog(p, 1, base)
	if err != nil {
		t.Fatal(err)
	}
	strict, serr := l2.ScanStrict(3)
	if serr != nil {
		t.Fatalf("ScanStrict convicted a pure power failure: %v", serr)
	}
	if plain := l2.Scan(3); len(plain) != len(strict) {
		t.Fatalf("strict scan %d entries, plain %d", len(strict), len(plain))
	}
}

// --- Satellite 4: differential property tests --------------------------------

// boundQuickPayloads normalizes quick-generated payloads to the sizes both
// writers accept, so the differential compares identical logical inputs.
func boundQuickPayloads(payloads [][]byte) [][]byte {
	out := make([][]byte, 0, len(payloads))
	for _, pl := range payloads {
		if len(pl) > 2048 {
			pl = pl[:2048]
		}
		out = append(out, pl)
	}
	return out
}

// TestQuickLineLegacyScanEquivalence: over random payload sequences, the
// line writer's scan output is byte-for-byte identical to the legacy
// writer's — before and after a clean crash (all appends fenced, so the
// durable image must retain everything in both formats).
func TestQuickLineLegacyScanEquivalence(t *testing.T) {
	f := func(payloads [][]byte, seq uint64) bool {
		if seq == 0 {
			seq = 1
		}
		payloads = boundQuickPayloads(payloads)
		pLeg := nvm.New(1 << 22)
		pLine := nvm.New(1 << 22)
		leg := FormatDataLog(pLeg, 0, pLeg.HeapBase(), 1<<20)
		lin := FormatDataLogLine(pLine, 0, pLine.HeapBase(), 1<<20)
		leg.Reset()
		lin.Reset()
		kept := 0
		for i, pl := range payloads {
			_, err1 := leg.Append(seq, uint64(i)*64, pl, AppendOptions{})
			_, err2 := lin.Append(seq, uint64(i)*64, pl, AppendOptions{})
			if (err1 == nil) != (err2 == nil) {
				// Capacity geometry differs slightly; stop at the first
				// divergence so both logs hold the same prefix.
				break
			}
			if err1 != nil {
				break
			}
			kept++
		}
		check := func(a, b []Entry) bool {
			if len(a) != kept || len(b) != kept {
				return false
			}
			for i := range a {
				if a[i].Addr != b[i].Addr || !bytes.Equal(a[i].Data, b[i].Data) {
					return false
				}
			}
			return true
		}
		if !check(leg.Scan(seq), lin.Scan(seq)) {
			return false
		}
		pLeg.Crash()
		pLine.Crash()
		l2, err := AttachDataLog(pLeg, 0, pLeg.HeapBase())
		if err != nil {
			return false
		}
		l3, err := AttachDataLog(pLine, 0, pLine.HeapBase())
		if err != nil {
			return false
		}
		return check(l2.Scan(seq), l3.Scan(seq))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLineCrashDurabilityFloor: for random payload sequences, crash the
// line writer at EVERY persist point under the torn-line adversary. The
// surviving scan must always be a byte-identical prefix of what the legacy
// writer scans for the same inputs, at least as long as the fenced prefix.
func TestQuickLineCrashDurabilityFloor(t *testing.T) {
	f := func(payloads [][]byte, seq uint64, seed int64) bool {
		if seq == 0 {
			seq = 1
		}
		payloads = boundQuickPayloads(payloads)
		if len(payloads) > 6 {
			payloads = payloads[:6] // bound the per-sequence sweep cost
		}
		// Legacy oracle: full scan of the same inputs.
		pLeg := nvm.New(1 << 22)
		leg := FormatDataLog(pLeg, 0, pLeg.HeapBase(), 1<<20)
		leg.Reset()
		for i, pl := range payloads {
			if _, err := leg.Append(seq, uint64(i)*64, pl, AppendOptions{}); err != nil {
				return true // capacity edge: nothing to sweep differentially
			}
		}
		oracle := leg.Scan(seq)

		// Count the line writer's persist points for these inputs.
		ref := nvm.New(1 << 22)
		rl := FormatDataLogLine(ref, 0, ref.HeapBase(), 1<<20)
		rl.Reset()
		ref.ResetPersistPoints()
		for i, pl := range payloads {
			if _, err := rl.Append(seq, uint64(i)*64, pl, AppendOptions{}); err != nil {
				return true
			}
		}
		points := ref.PersistPoints(nvm.CrashAtAny)

		for point := int64(1); point <= points; point++ {
			p := nvm.New(1<<22, nvm.WithEviction(nvm.EvictTorn), nvm.WithSeed(seed^point))
			base := p.HeapBase()
			l := FormatDataLogLine(p, 0, base, 1<<20)
			l.Reset()
			p.ResetPersistPoints()
			p.ScheduleCrashAt(nvm.CrashAtAny, point)
			completed := 0
			func() {
				defer func() { recover() }()
				for i, pl := range payloads {
					if _, err := l.Append(seq, uint64(i)*64, pl, AppendOptions{}); err != nil {
						return
					}
					completed++
				}
			}()
			p.ScheduleCrashAt(nvm.CrashAtAny, 0)
			p.Crash()
			l2, err := AttachDataLog(p, 0, base)
			if err != nil {
				return false
			}
			got := l2.Scan(seq)
			if len(got) > len(oracle) || len(got) < completed {
				return false
			}
			for i := range got {
				if got[i].Addr != oracle[i].Addr || !bytes.Equal(got[i].Data, oracle[i].Data) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// --- Satellite 1: Reset/sequence-reuse resurrection -------------------------

// TestDataLogSeqReuseNoResurrection is the deterministic regression for the
// stale-entry resurrection bug class (PR 6 hit it in the redolog engine):
// three same-size entries under sequence 5, a crash, then the sequence is
// reused after Reset for a single same-size entry. Without the next-header
// terminator each append now writes, the scan of the reused sequence walked
// straight past the fresh entry into the stale ones at the old offsets.
func TestDataLogSeqReuseNoResurrection(t *testing.T) {
	p := nvm.New(1 << 22)
	base := p.HeapBase()
	l := FormatDataLog(p, 0, base, 4096)
	l.Reset()
	for i := 0; i < 3; i++ {
		if _, err := l.Append(5, 0x100*uint64(i+1), []byte("stale-8b"), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	p.Crash() // everything fenced: all three entries durable

	l2, err := AttachDataLog(p, 0, base)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(l2.Scan(5)); n != 3 {
		t.Fatalf("precondition: %d stale entries durable, want 3", n)
	}
	l2.Reset()
	// Sequence 5 is reused; the fresh entry has the same size as the stale
	// first entry, so old offsets line up exactly.
	if _, err := l2.Append(5, 0xAA, []byte("fresh-8b"), AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	l3, err := AttachDataLog(p, 0, base)
	if err != nil {
		t.Fatal(err)
	}
	got := l3.Scan(5)
	if len(got) != 1 || got[0].Addr != 0xAA || !bytes.Equal(got[0].Data, []byte("fresh-8b")) {
		t.Fatalf("stale entries resurrected past the reused sequence's tail: %+v", got)
	}
}

// Same bug class through the batch path.
func TestDataLogBatchSeqReuseNoResurrection(t *testing.T) {
	p := nvm.New(1 << 22)
	base := p.HeapBase()
	l := FormatDataLog(p, 0, base, 4096)
	l.Reset()
	batch := []BatchEntry{
		{Addr: 0x10, Data: []byte("stale-8b")},
		{Addr: 0x20, Data: []byte("stale-8b")},
		{Addr: 0x30, Data: []byte("stale-8b")},
	}
	if _, err := l.AppendBatch(5, batch, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	l2, err := AttachDataLog(p, 0, base)
	if err != nil {
		t.Fatal(err)
	}
	l2.Reset()
	if _, err := l2.AppendBatch(5, batch[:1], AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	l3, err := AttachDataLog(p, 0, base)
	if err != nil {
		t.Fatal(err)
	}
	if got := l3.Scan(5); len(got) != 1 {
		t.Fatalf("batch seq reuse resurrected %d entries, want 1", len(got))
	}
}

// --- Satellite 2: torn-entry rescan accepting overlapped stale bytes --------

// TestScanStrictTornEntryOverlapNoFalseCorruption crafts the overlap the
// rescan used to fall for: a torn entry at the stop offset whose header is
// plausible (matching sequence, in-bounds length) but whose payload region
// still holds a stale, checksum-valid same-sequence entry image at an
// 8-byte-aligned offset. Probing from stop+8 lands inside the torn extent,
// finds the stale image, and convicts a healthy slot; the rescan must skip
// the torn entry's whole extent instead.
func TestScanStrictTornEntryOverlapNoFalseCorruption(t *testing.T) {
	p := nvm.New(1 << 22)
	base := p.HeapBase()
	l := FormatDataLog(p, 0, base, 4096)
	l.Reset()
	// Layout: A at 0 (40 bytes), filler at 40 (32 bytes), C at 72 (40 bytes).
	if _, err := l.Append(7, 0xA0, []byte("entry-A!"), AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(7, 0xF0, nil, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(7, 0xC0, []byte("entry-C!"), AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn re-append at offset 40: its 24-byte header (seq 7,
	// len 56 — extent 40..168) persisted, but the payload and checksum did
	// not, leaving C's stale-but-valid image at offset 72 inside the torn
	// payload region.
	at := base + 16 + 40
	p.Store64(at, 7)      // seq
	p.Store64(at+8, 0xB0) // addr
	p.Store64(at+16, 56)  // len (low word), pad zero
	p.Persist(at, 24)
	p.Crash()

	l2, err := AttachDataLog(p, 0, base)
	if err != nil {
		t.Fatal(err)
	}
	got, serr := l2.ScanStrict(7)
	if serr != nil {
		t.Fatalf("healthy torn tail convicted as corruption: %v", serr)
	}
	if len(got) != 1 || got[0].Addr != 0xA0 {
		t.Fatalf("prefix scan = %+v", got)
	}
}

// TestScanStrictStillDetectsRealCorruption: skipping the torn extent must
// not blind the rescan to genuine damage — a valid same-sequence entry
// BEYOND the torn entry's extent still proves the prefix was damaged after
// being written.
func TestScanStrictStillDetectsRealCorruption(t *testing.T) {
	p := nvm.New(1 << 22)
	base := p.HeapBase()
	l := FormatDataLog(p, 0, base, 4096)
	l.Reset()
	for i := 0; i < 3; i++ {
		if _, err := l.Append(7, 0x100*uint64(i+1), []byte("entry-8b"), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Smash the middle entry's checksum (fence-ordered log: this pattern
	// cannot be produced by a pure power failure).
	p.Store64(base+16+40+32, 0xdeadbeef)
	p.Persist(base+16+40+32, 8)
	p.Crash()

	l2, err := AttachDataLog(p, 0, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := l2.ScanStrict(7); !errors.Is(serr, txn.ErrCorruptLog) {
		t.Fatalf("damaged prefix with valid successor not convicted: %v", serr)
	}
}

// --- Satellite 3: checksum tail isolation ------------------------------------

// TestChecksumTailIsolation verifies the trailing-bytes staging of checksum
// is isolated per call: the checksum depends on exactly payload[:len] — no
// contamination from earlier calls' tail bytes, no sensitivity to backing
// array bytes beyond the slice length, and full sensitivity to every byte
// within it.
func TestChecksumTailIsolation(t *testing.T) {
	mk := func(fill byte, content string) []byte {
		backing := bytes.Repeat([]byte{fill}, 64)
		copy(backing, content)
		return backing[:len(content)]
	}
	a := mk(0xFF, "eleven-byts")
	b := mk(0x00, "eleven-byts")
	// Dirty a hypothetical shared tail with a 7-remainder payload first.
	_ = checksum(1, 2, 3, []byte("seven-bytes-plus-garbage-tail!!"))
	ca := checksum(9, 0x40, 5, a)
	_ = checksum(4, 5, 6, bytes.Repeat([]byte{0xEE}, 23))
	cb := checksum(9, 0x40, 5, b)
	if ca != cb {
		t.Fatalf("checksum depends on bytes beyond the payload length: %#x != %#x", ca, cb)
	}
	// Two payloads differing only in the final partial word must not
	// collide.
	c := mk(0x00, "eleven-bytZ")
	if cc := checksum(9, 0x40, 5, c); cc == ca {
		t.Fatalf("payloads differing in the tail collide: %#x", cc)
	}
	// A payload that is a strict prefix (tail shortened) must not collide
	// with the longer one via stale tail bytes.
	if cp := checksum(9, 0x40, 5, a[:10]); cp == ca {
		t.Fatal("prefix payload collides with full payload")
	}
}

// Differential sanity for the property ISSUE names: sweep remainder lengths
// so every tail width is exercised.
func TestChecksumTailAllRemainders(t *testing.T) {
	for r := 0; r <= 8; r++ {
		n := 16 + r
		p1 := bytes.Repeat([]byte{0xAB}, n)
		backing := bytes.Repeat([]byte{0xCD}, n+8)
		copy(backing, p1)
		p2 := backing[:n]
		_ = checksum(7, 7, 7, bytes.Repeat([]byte{0xFF}, 31)) // dirty any shared state
		if checksum(1, 2, 3, p1) != checksum(1, 2, 3, p2) {
			t.Fatalf("remainder %d: checksum reads beyond payload", r)
		}
	}
}

// lineWorkloadString silences unused-import lint when fmt is only used in
// failure paths of future edits.
var _ = fmt.Sprintf
