package diffprop

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/faults"
)

// analyzeAborting runs one StuckAt query and reports which resource
// sentinel (if any) aborted it, recovering the engine on abort.
func analyzeAborting(t *testing.T, e *Engine, f faults.StuckAt) (Result, error) {
	t.Helper()
	return runAborting(t, e, func() Result { return e.StuckAt(f) })
}

// runAborting is analyzeAborting for an arbitrary query on e.
func runAborting(t *testing.T, e *Engine, query func() Result) (res Result, abort error) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err, ok := r.(error)
		if !ok || (!errors.Is(err, bdd.ErrBudget) && !errors.Is(err, bdd.ErrNodeLimit)) {
			t.Fatalf("panic value %v, want a resource sentinel", r)
		}
		e.Recover()
		abort = err
	}()
	return query(), nil
}

func TestArmChaosAbortIsOneShot(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	want := scalars(e.StuckAt(fs[0]))

	e.ArmChaosAbort(1, bdd.ErrBudget)
	if _, abort := analyzeAborting(t, e, fs[0]); !errors.Is(abort, bdd.ErrBudget) {
		t.Fatalf("armed chaos abort did not fire: %v", abort)
	}
	if got := e.LastAbortOps(); got != 1 {
		t.Fatalf("abort charged %d ops, want 1", got)
	}
	// The trigger was consumed by the aborted attempt: the retry — and
	// every later fault — completes exactly and matches the clean result.
	got, abort := analyzeAborting(t, e, fs[0])
	if abort != nil {
		t.Fatalf("retry after chaos abort aborted again: %v", abort)
	}
	if !reflect.DeepEqual(scalars(got), want) {
		t.Fatalf("post-chaos retry diverged: %+v != %+v", scalars(got), want)
	}
}

func TestArmChaosAbortNodeLimitSentinel(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	e.ArmChaosAbort(2, bdd.ErrNodeLimit)
	if _, abort := analyzeAborting(t, e, fs[0]); !errors.Is(abort, bdd.ErrNodeLimit) {
		t.Fatalf("chaos abort carried %v, want bdd.ErrNodeLimit", abort)
	}
}

func TestArmChaosAbortClearedByRecover(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	// A trigger armed but never consumed (the analysis died before its
	// first query, e.g. an injected panic) must not leak past Recover.
	e.ArmChaosAbort(1, bdd.ErrBudget)
	e.Recover()
	if _, abort := analyzeAborting(t, e, fs[0]); abort != nil {
		t.Fatalf("stale chaos trigger leaked into the next fault: %v", abort)
	}
}

// AnalysisOps must meter each analysis independently — the property the
// campaign layer's budget self-calibration samples rely on.
func TestAnalysisOpsIsPerAnalysis(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	if len(fs) < 2 {
		t.Fatal("need two faults")
	}
	e.StuckAt(fs[0])
	first := e.AnalysisOps()
	e.StuckAt(fs[1])
	second := e.AnalysisOps()
	e.StuckAt(fs[1])
	warm := e.AnalysisOps()
	if first <= 0 || second <= 0 {
		t.Fatalf("per-analysis ops = %d, %d; want positive counts", first, second)
	}
	// A cumulative meter would only ever grow; the warm re-run of fault 1
	// must not include fault 0's cost.
	if warm >= first+second {
		t.Fatalf("ops meter looks cumulative: first=%d second=%d warm=%d", first, second, warm)
	}
}
