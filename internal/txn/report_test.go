package txn

import (
	"errors"
	"reflect"
	"testing"
)

func TestRecoveryReportAdd(t *testing.T) {
	e1, e2 := errors.New("slot 1"), errors.New("slot 5")
	sum := RecoveryReport{Slots: 4, Recovered: 1, Reexecuted: 1, Quarantined: 1, Errors: []error{e1}}
	sum.Add(RecoveryReport{Slots: 8, Recovered: 5, Reexecuted: 1, RolledBack: 2, RolledForward: 2,
		Quarantined: 1, Errors: []error{e2}})
	want := RecoveryReport{Slots: 12, Recovered: 6, Reexecuted: 2, RolledBack: 2, RolledForward: 2,
		Quarantined: 2, Errors: []error{e1, e2}}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("sum = %+v, want %+v", sum, want)
	}
	// Every counter of the report must take part: a field added later and
	// forgotten in Add shows up here as a zero.
	v := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("field %s not merged", v.Type().Field(i).Name)
		}
	}
}
