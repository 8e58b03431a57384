package txn

import "errors"

// ErrCorruptLog reports that a persistent log failed validation during
// recovery or attach: a checksum mismatch, an impossible length, or a valid
// entry found beyond a torn one in a fence-ordered log. It is the typed
// error carried by quarantined slots.
var ErrCorruptLog = errors.New("txn: corrupt persistent log")

// ErrSlotQuarantined reports an attempt to run a transaction on a slot that
// recovery quarantined. The slot's persistent state is left untouched for
// forensics; the rest of the engine keeps working.
var ErrSlotQuarantined = errors.New("txn: slot quarantined by recovery")

// RecoveryReport summarizes what Recover did, so callers can degrade
// gracefully instead of dying on the first corrupt slot.
type RecoveryReport struct {
	// Slots is the number of transaction slots examined.
	Slots int
	// Recovered is the number of interrupted transactions brought to a
	// consistent end state, by whatever discipline the engine uses.
	Recovered int
	// Reexecuted counts slots completed by restore-inputs-and-re-execute
	// (the clobber engine's path).
	Reexecuted int
	// RolledBack counts slots completed by undo (undolog/atlas).
	RolledBack int
	// RolledForward counts slots completed by redo replay (redolog).
	RolledForward int
	// Quarantined counts slots whose logs failed validation. Their
	// persistent state is preserved untouched; Run on them returns
	// ErrSlotQuarantined.
	Quarantined int
	// Errors holds one error per quarantined slot (wrapping ErrCorruptLog
	// or the panic that recovery converted).
	Errors []error
}

// Add folds o into r, counter by counter: how the reports of several pools
// (shards) merge into one.
func (r *RecoveryReport) Add(o RecoveryReport) {
	r.Slots += o.Slots
	r.Recovered += o.Recovered
	r.Reexecuted += o.Reexecuted
	r.RolledBack += o.RolledBack
	r.RolledForward += o.RolledForward
	r.Quarantined += o.Quarantined
	r.Errors = append(r.Errors, o.Errors...)
}

// RecoveryReporter is implemented by engines with hardened recovery. The
// legacy Engine.Recover() remains for callers that only need a count; it is
// equivalent to RecoverReport with the quarantine detail dropped.
type RecoveryReporter interface {
	// RecoverReport recovers the pool and describes the outcome. The
	// returned error is non-nil only for failures that leave the engine
	// unusable (e.g. a txfunc missing its registration); per-slot
	// corruption is reported via Quarantined/Errors instead.
	RecoverReport() (RecoveryReport, error)
}
