package proptest

import (
	"strings"
	"testing"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// entryCounter is a trace sink counting clobber_log entries by how they
// were found: declared by the txfunc, or detected at the store. The test
// that installs it runs alone, so plain counters do.
type entryCounter struct{ declared, detected int }

func (c *entryCounter) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindClobberDeclared:
		c.declared++
	case obs.KindClobberLog:
		c.detected++
	}
}

// editCheck wraps an engine so that each B+tree insert and delete is
// checked as it runs. It tells an edit of one node from a structural change
// by the transaction's allocations: a delete allocates nothing, an insert or
// update one kv block, and a split (or the first leaf) a node besides.
type editCheck struct {
	pds.Engine
	t     *testing.T
	sink  *entryCounter
	tally *editTally
}

type editTally struct{ edits, splits, declared int }

func (e editCheck) Register(name string, fn txn.TxFunc) {
	op := name[strings.LastIndexByte(name, ':')+1:]
	e.Engine.Register(name, func(m txn.Mem, args *txn.Args) error {
		am := &allocCounter{Mem: m}
		declared, detected := e.sink.declared, e.sink.detected
		err := fn(am, args)
		declared, detected = e.sink.declared-declared, e.sink.detected-detected
		switch {
		case op != "ins" && op != "del":
		case am.allocs > 1:
			e.tally.splits++
		default:
			e.tally.edits++
			e.tally.declared += declared
			if detected != 0 {
				e.t.Errorf("%s: the run-time check logged %d entries beside %d declared", name, detected, declared)
			}
		}
		return err
	})
}

type allocCounter struct {
	txn.Mem
	allocs int
}

func (m *allocCounter) Alloc(size uint64) (txn.Addr, error) {
	m.allocs++
	return m.Mem.Alloc(size)
}

// TestBPTreeDeclaredCoversDetected runs the B+tree proptest battery,
// crash-free, on the clobber engine under a trace sink and requires
// declared ⊇ detected on every edit of one node: an insert, update or
// delete that does not split logs all it clobbers through its declaration,
// and the run-time check finds nothing left to log. Splits may still lean
// on the check. Not parallel: the trace sink is process-wide.
func TestBPTreeDeclaredCoversDetected(t *testing.T) {
	sink := &entryCounter{}
	defer obs.SetSink(obs.SetSink(sink))
	var tally editTally
	for seed := int64(0); seed < 24; seed++ {
		spec := Spec{Engine: "clobber", Structure: "bptree", Seed: seed, Ops: 120}
		es, err := engineSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		create := es.Create
		es.Create = func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			e, err := create(p, a)
			return editCheck{Engine: e, t: t, sink: sink, tally: &tally}, err
		}
		_, store, _, err := setup(es, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range Materialize(spec) {
			if err := execOp(store, 0, o, nil); err != nil {
				t.Fatalf("seed %d: %v: %v", seed, o, err)
			}
		}
	}
	if tally.edits == 0 || tally.splits == 0 || tally.declared < tally.edits {
		t.Fatalf("battery too thin: %d edits declaring %d entries, %d splits", tally.edits, tally.declared, tally.splits)
	}
	t.Logf("%d edits declared %d entries with none detected; %d splits", tally.edits, tally.declared, tally.splits)
}
