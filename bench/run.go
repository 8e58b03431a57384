package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// config is what the command line chooses.
type config struct {
	seed      int64
	seconds   float64
	serverBin string
	outDir    string
	// scale divides populations and op counts (smoke test only).
	scale int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times a run builds its system from nothing; the
// median is reported as setup_s and the last build is the one measured.
const setupRepeats = 3

// warmupFrac of the run length is spent on untimed ops before the window.
const warmupFrac = 0.05

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.9999999) - 1
	return float64(sorted[min(max(rank, 0), len(sorted)-1)])
}

func sortedCopy(xs []uint32) []uint32 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// bench is one workload's system plus the workers that drive it.
type bench struct {
	sp      *spec
	env     env
	workers []*worker
}

// setUp builds the system from nothing: pool or server process, engine,
// structure, connections, and the preloaded population.
func setUp(sp *spec, cfg config) (*bench, error) {
	var e env
	var err error
	if sp.served {
		e, err = newKVEnv(sp, cfg.serverBin)
	} else {
		e, err = newLibEnv(sp, nil)
	}
	if err != nil {
		return nil, err
	}
	b, err := newBench(sp, cfg, e)
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	return b, nil
}

// newBench attaches workers to a fresh env and preloads it.
func newBench(sp *spec, cfg config, e env) (*bench, error) {
	b := &bench{sp: sp, env: e}
	// Slack past the last round's keys leaves room for the crash audit's
	// extra inserts.
	vers := make([]uint32, sp.keys()+1024)
	for i, t := range e.targets() {
		b.workers = append(b.workers, newWorker(i, sp, cfg.seed, vers, t))
	}
	if err := b.each(func(w *worker) error { return w.preload() }); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	return b, nil
}

// each runs fn on every worker concurrently and waits for all of them.
func (b *bench) each(fn func(w *worker) error) error {
	errs := make([]error, len(b.workers))
	var wg sync.WaitGroup
	for i, w := range b.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(w)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// window is what the measured part of a run yields.
type window struct {
	elapsed time.Duration
	// counted* cover the ops the per-write counts are taken over: the first
	// round of a load workload (the same ops on every run of a seed, so the
	// counts repeat exactly), the whole window otherwise.
	counted      counters
	countedBytes int64
	countedOps   int64
}

// measure runs the warm-up and then the window of about d.
func (b *bench) measure(d time.Duration) (window, error) {
	if b.sp.roundOps > 0 {
		return b.measureRounds(d)
	}
	for _, w := range b.workers {
		w.reserve(1 << 22)
	}
	runFor := func(d time.Duration) time.Duration {
		start := time.Now()
		_ = b.each(func(w *worker) error { w.run(start.Add(d), 1<<62); return nil })
		return time.Since(start)
	}
	runFor(time.Duration(warmupFrac * float64(d)))
	for _, w := range b.workers {
		w.resetSamples()
	}
	before, err := b.env.counters()
	if err != nil {
		return window{}, err
	}
	win := window{elapsed: runFor(d)}
	after, err := b.env.counters()
	if err != nil {
		return window{}, err
	}
	win.counted = after.sub(before)
	for _, w := range b.workers {
		win.countedBytes += w.userBytes
		win.countedOps += int64(len(w.writeNS))
	}
	return win, nil
}

// measureRounds runs insert rounds, each from the post-preload image,
// until d of measured time has passed. Only time inside rounds counts.
func (b *bench) measureRounds(d time.Duration) (window, error) {
	e, w := b.env.(*libEnv), b.workers[0]
	e.snapshot()
	w.reserve(1 << 22)
	round := func(budget time.Duration, maxOps int) time.Duration {
		clear(w.vers[b.sp.preload:])
		w.next = b.sp.preload
		start := time.Now()
		w.run(start.Add(budget), maxOps)
		return time.Since(start)
	}
	// The warm-up is a fixed op count, not a time: it leaves the generator
	// in the same state on every run of a seed, so the first round issues
	// the same ops and its counts repeat exactly.
	round(d, int(warmupFrac*float64(b.sp.roundOps)))
	w.resetSamples()

	var win window
	for first := true; win.elapsed < d; first = false {
		if err := e.restore(); err != nil {
			return window{}, err
		}
		before, _ := e.counters()
		bytesBefore, opsBefore := w.userBytes, len(w.writeNS)
		win.elapsed += round(d-win.elapsed, b.sp.roundOps)
		if first {
			after, _ := e.counters()
			win.counted = after.sub(before)
			win.countedBytes = w.userBytes - bytesBefore
			win.countedOps = int64(len(w.writeNS) - opsBefore)
		}
	}
	return win, nil
}

// runUntraced is one end-to-end run: set up, measure with no decorator
// installed, audit, tear down.
func runUntraced(sp spec, cfg config) (res result, err error) {
	sp = sp.scaled(cfg.scale)
	var b *bench
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			if err := b.env.close(); err != nil {
				return res, err
			}
			// Return the previous pool to the OS before the next is built,
			// so the peak does not depend on when the collector ran.
			b = nil
			debug.FreeOSMemory()
		}
		start := time.Now()
		if b, err = setUp(&sp, cfg); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if b != nil {
			err = errors.Join(err, b.env.close())
		}
	}()

	runtime.GC()
	win, err := b.measure(time.Duration(cfg.seconds * float64(time.Second)))
	if err != nil {
		return res, err
	}
	rss, err := b.env.peakRSSMB()
	if err != nil {
		return res, err
	}

	var reads, writes []uint32
	for _, w := range b.workers {
		reads = append(reads, w.readNS...)
		writes = append(writes, w.writeNS...)
	}
	slices.Sort(reads)
	slices.Sort(writes)
	if len(reads) == 0 || len(writes) == 0 || win.countedOps == 0 {
		return res, errors.New("window too short: no reads or no writes completed")
	}
	perWrite := func(n int64) float64 { return float64(n) / float64(win.countedOps) }
	res.Metrics = map[string]metric{
		"ops_per_s":               {float64(len(reads)+len(writes)) / win.elapsed.Seconds(), "1/s"},
		"write_p50_us":            {percentile(writes, 50) / 1e3, "us"},
		"write_p99_us":            {percentile(writes, 99) / 1e3, "us"},
		"read_p50_us":             {percentile(reads, 50) / 1e3, "us"},
		"read_p99_us":             {percentile(reads, 99) / 1e3, "us"},
		"fences_per_write":        {perWrite(win.counted.fences), "count"},
		"flushes_per_write":       {perWrite(win.counted.flushes), "count"},
		"log_bytes_per_write":     {perWrite(win.counted.logBytes), "bytes"},
		"nvm_bytes_per_user_byte": {float64(win.counted.bytesStored) / float64(win.countedBytes), "ratio"},
		"setup_s":                 {median(setups), "s"},
		"peak_rss_mb":             {rss, "MB"},
	}
	info("%s: %d reads, %d writes in %.2fs; set-ups %.3v s", sp.name, len(reads), len(writes), win.elapsed.Seconds(), setups)

	// Audits: every acknowledged write is there; then one injected power
	// failure, after which it all must still be there and the interrupted
	// write all-or-nothing.
	if err := b.each(func(w *worker) error { return w.audit() }); err != nil {
		return res, fmt.Errorf("read-back: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	if err := b.env.crash(b.workers[0], rng); err != nil {
		return res, fmt.Errorf("crash audit: %w", err)
	}
	if err := b.each(func(w *worker) error { return w.audit() }); err != nil {
		return res, fmt.Errorf("read-back after crash: %w", err)
	}
	for _, w := range b.workers {
		res.Attempted += w.attempted
		res.Failed += w.failed
	}
	err = b.env.close()
	b = nil
	res.Correct = res.Failed == 0 && err == nil
	return res, err
}
