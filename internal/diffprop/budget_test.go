package diffprop

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/faults"
)

// analyzeBudgeted runs one StuckAt query and reports whether it aborted
// with bdd.ErrBudget (recovering the engine if so).
func analyzeBudgeted(t *testing.T, e *Engine, f faults.StuckAt) (res Result, aborted bool) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, bdd.ErrBudget) {
			t.Fatalf("panic value %v, want bdd.ErrBudget", r)
		}
		e.Recover()
		aborted = true
	}()
	return e.StuckAt(f), false
}

func TestFaultBudgetAbortAndRecover(t *testing.T) {
	c := circuits.MustGet("alu181")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	if len(fs) < 4 {
		t.Fatal("fault set too small")
	}

	// Reference run: unbudgeted results for the first few faults.
	want := make([]Result, 4)
	for i := range want {
		want[i] = scalars(e.StuckAt(fs[i])) // refs die across recoveries
	}

	// A one-op budget cannot finish any real propagation.
	e.SetFaultBudget(FaultBudget{Ops: 1})
	if _, aborted := analyzeBudgeted(t, e, fs[0]); !aborted {
		t.Fatal("Ops=1 budget did not abort the analysis")
	}

	// After Recover + a generous budget, queries must match the
	// unbudgeted reference exactly.
	e.SetFaultBudget(FaultBudget{Ops: 1 << 40, Wall: time.Minute})
	for i := range want {
		got := scalars(e.StuckAt(fs[i]))
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("fault %d: budgeted result %+v != unbudgeted %+v", i, got, want[i])
		}
	}

	// Disarming restores unbounded analysis.
	e.SetFaultBudget(FaultBudget{})
	if e.FaultBudget().active() {
		t.Fatal("zero budget reports active")
	}
	if _, aborted := analyzeBudgeted(t, e, fs[0]); aborted {
		t.Fatal("disarmed budget still aborts")
	}
}

func TestCloneCopiesFaultBudget(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaultBudget(FaultBudget{Ops: 123, Wall: time.Second})
	if got := e.Clone().FaultBudget(); got != (FaultBudget{Ops: 123, Wall: time.Second}) {
		t.Fatalf("clone budget = %+v", got)
	}
}
