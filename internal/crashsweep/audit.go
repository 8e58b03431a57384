package crashsweep

import (
	"fmt"

	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// This file is the audit plumbing shared between the exhaustive sweep and
// the property-based torture harness (internal/proptest): read back a
// recovered structure, compare it against the admissible models, and verify
// its structural invariants. Keeping the comparison in one place means both
// harnesses flag the exact same states as torn.

// Observe reads every key in universe back from the store and returns the
// observed key-value state. Missing keys are simply absent from the result.
func Observe(s pds.Store, universe map[string]struct{}) (map[string]string, error) {
	obs := make(map[string]string, len(universe))
	for k := range universe {
		got, found, err := s.Get(0, []byte(k))
		if err != nil {
			return nil, fmt.Errorf("get %q after recovery: %w", k, err)
		}
		if found {
			obs[k] = string(got)
		}
	}
	return obs, nil
}

// ModelEqual reports whether two key-value states match exactly.
func ModelEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// AuditRecovered validates a recovered structure against the two admissible
// models for a crash during one operation: pre (op absent) or post (op
// complete). It checks the observed state, the structure's Len, and its
// structural invariants, returning "" when all pass or a human-readable
// detail of the first violation.
func AuditRecovered(s pds.Store, obs, pre, post map[string]string) string {
	var want map[string]string
	switch {
	case ModelEqual(obs, pre):
		want = pre
	case ModelEqual(obs, post):
		want = post
	default:
		return fmt.Sprintf("torn state: got %v, want %v (op absent) or %v (op complete)", obs, pre, post)
	}
	if n, err := s.Len(0); err != nil || n != len(want) {
		return fmt.Sprintf("Len = %d, %v; want %d", n, err, len(want))
	}
	if err := pds.CheckInvariants(s, 0); err != nil {
		return fmt.Sprintf("structural invariant violated after recovery: %v", err)
	}
	return ""
}

// Recover runs the engine's recovery and returns its report, synthesizing a
// minimal one for engines that only implement the plain Recover method.
func Recover(e pds.Engine) (txn.RecoveryReport, error) {
	if rr, ok := e.(txn.RecoveryReporter); ok {
		return rr.RecoverReport()
	}
	n, err := e.Recover()
	return txn.RecoveryReport{Recovered: n}, err
}

// CheckHeap requires a clean allocator audit and that no block reachable
// from the structure is one the allocator could hand out again. It returns
// the number of heap bytes neither on the allocator's books (free lists,
// unbumped spans, central reserve) nor reachable: the engine's own blocks
// plus whatever has leaked.
func CheckHeap(a *pmem.Allocator, s pds.Store, poolSize uint64) (uint64, error) {
	rep, err := a.Check()
	if err != nil {
		return 0, err
	}
	owned := rep.FreeBytes + rep.HugeFreeBytes + rep.BumpReserve + rep.CentralReserve
	if w, ok := s.(pds.BlockWalker); ok {
		blocks, err := w.Blocks(0)
		if err != nil {
			return 0, err
		}
		for _, addr := range blocks {
			if rep.IsFree(addr) {
				return 0, fmt.Errorf("block %#x is reachable from the %s and free in the allocator", addr, s.Name())
			}
			usable, err := a.UsableSize(addr)
			if err != nil {
				return 0, fmt.Errorf("reachable block %#x: %w", addr, err)
			}
			owned += usable + 8 // the block's header word
		}
	}
	return poolSize - owned, nil
}

// AuditHeap validates the heap under a recovered structure: the allocator's
// own audit passes, nothing reachable is free, and the crash leaked at most
// one refill chunk over unownedBefore, the CheckHeap of the pre-crash image. It returns "" or a detail of the first violation.
func AuditHeap(a *pmem.Allocator, s pds.Store, poolSize, unownedBefore uint64) string {
	unowned, err := CheckHeap(a, s, poolSize)
	if err != nil {
		return fmt.Sprintf("heap audit after recovery: %v", err)
	}
	if leaked := int64(unowned - unownedBefore); leaked > pmem.ChunkSize {
		return fmt.Sprintf("recovery leaked %d heap bytes (bound: one %d-byte chunk)", leaked, pmem.ChunkSize)
	}
	return ""
}
