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

// analyzeLimited runs one StuckAt query and reports whether it aborted
// with bdd.ErrNodeLimit (recovering the engine if so).
func analyzeLimited(t *testing.T, e *Engine, f faults.StuckAt) (res Result, aborted bool) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, bdd.ErrNodeLimit) {
			t.Fatalf("panic value %v, want bdd.ErrNodeLimit", r)
		}
		e.Recover()
		aborted = true
	}()
	return e.StuckAt(f), false
}

// scalars strips the manager-bound refs so results survive recoveries.
func scalars(r Result) Result {
	r.PerPO = nil
	r.Complete = bdd.False
	r.epoch = 0
	r.ObservedPOs = append([]int(nil), r.ObservedPOs...)
	return r
}

func TestNodeLimitAbortEntersLadder(t *testing.T) {
	c := circuits.MustGet("alu181")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)

	// References come from a second engine so the abort engine's node table
	// holds only the good functions when the watermark is armed (queries
	// leave garbage that inflates the 1.5x headroom floor).
	ref, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Result, 4)
	for i := range want {
		want[i] = scalars(ref.StuckAt(fs[i]))
	}

	// NodeLimit=1 arms the minimum possible watermark (1.5x live), which a
	// real propagation on the ALU must blow.
	e.SetRecovery(Recovery{NodeLimit: 1})
	if _, aborted := analyzeLimited(t, e, fs[0]); !aborted {
		t.Fatal("NodeLimit=1 did not abort the analysis")
	}
	if got := e.Stats().NodesReclaimed; got <= 0 {
		t.Fatalf("ladder GC reclaimed %d nodes after an abort, want > 0", got)
	}

	// After the ladder, an unconstrained engine must reproduce the
	// reference results exactly.
	e.SetRecovery(Recovery{})
	for i := range want {
		if got := scalars(e.StuckAt(fs[i])); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("fault %d after ladder: %+v != reference %+v", i, got, want[i])
		}
	}
}

func TestBeginRaisesWatermarkToHeadroom(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetRecovery(Recovery{NodeLimit: 1})
	e.begin()
	live := e.m.NodeCount()
	if got := e.m.NodeLimit(); got < live+live/2 {
		t.Fatalf("armed watermark %d leaves no headroom over %d live nodes", got, live)
	}
	// Disarming the ladder disarms the watermark on the next begin.
	e.SetRecovery(Recovery{})
	e.begin()
	if got := e.m.NodeLimit(); got != 0 {
		t.Fatalf("cleared recovery left watermark %d armed", got)
	}
}

func TestRecoverSiftRungFiresOnce(t *testing.T) {
	c := circuits.MustGet("alu181")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(e.Circuit)
	ref, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := scalars(ref.StuckAt(fs[0]))

	// Watermark 1 guarantees the post-GC live set still exceeds it, so the
	// sift rung must fire on the first recovery and be skipped afterwards.
	e.SetRecovery(Recovery{NodeLimit: 1, SiftPasses: DefaultSiftPasses})
	if _, aborted := analyzeLimited(t, e, fs[0]); !aborted {
		t.Fatal("NodeLimit=1 did not abort the analysis")
	}
	if got := e.Stats().Sifts; got != 1 {
		t.Fatalf("sift rung ran %d times after first recovery, want 1", got)
	}
	// Run the remaining faults; however many more abort, the sift rung must
	// never fire again on this engine's fixed good set.
	more := 0
	for _, f := range fs[1:] {
		if _, aborted := analyzeLimited(t, e, f); aborted {
			more++
		}
	}
	if more == 0 {
		t.Fatal("no further fault aborted; the once-only guard went untested")
	}
	if got := e.Stats().Sifts; got != 1 {
		t.Fatalf("sift rung re-ran on a fixed good set: %d runs, want 1", got)
	}

	// The reordered engine must still compute exact results.
	e.SetRecovery(Recovery{})
	if got := scalars(e.StuckAt(fs[0])); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-sift result %+v != reference %+v", got, want)
	}
	// Clones inherit the sifted order and its once-only guard.
	if cl := e.Clone(); cl.lastSiftSize == 0 {
		t.Fatal("clone dropped the sift-once guard")
	}
}

func TestRelaxBudgetScalesAndRestores(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Disabled rung: multiplier <= 1.
	e.SetFaultBudget(FaultBudget{Ops: 100})
	if _, ok := e.RelaxBudget(); ok {
		t.Fatal("RelaxBudget armed with RetryMultiplier unset")
	}
	// Nothing to relax: no bound armed.
	e.SetFaultBudget(FaultBudget{})
	e.SetRecovery(Recovery{RetryMultiplier: 8})
	if _, ok := e.RelaxBudget(); ok {
		t.Fatal("RelaxBudget armed with no bound to relax")
	}

	e.SetFaultBudget(FaultBudget{Ops: 100, Wall: time.Second})
	e.SetRecovery(Recovery{NodeLimit: 1000, RetryMultiplier: 8})
	restore, ok := e.RelaxBudget()
	if !ok {
		t.Fatal("RelaxBudget refused to arm")
	}
	if got := e.FaultBudget(); got.Ops != 800 || got.Wall != 8*time.Second {
		t.Fatalf("relaxed budget = %+v, want 8x", got)
	}
	if got := e.Recovery().NodeLimit; got != 8000 {
		t.Fatalf("relaxed node limit = %d, want 8000", got)
	}
	restore()
	if got := e.FaultBudget(); got != (FaultBudget{Ops: 100, Wall: time.Second}) {
		t.Fatalf("restore left budget %+v", got)
	}
	if got := e.Recovery().NodeLimit; got != 1000 {
		t.Fatalf("restore left node limit %d", got)
	}

	// Saturation: a huge bound times a huge multiplier must not overflow.
	e.SetFaultBudget(FaultBudget{Ops: 1 << 61})
	e.SetRecovery(Recovery{RetryMultiplier: 1e9})
	if _, ok := e.RelaxBudget(); !ok {
		t.Fatal("RelaxBudget refused a saturating arm")
	}
	if got := e.FaultBudget().Ops; got != 1<<62 {
		t.Fatalf("saturated ops = %d, want 1<<62", got)
	}
}

func TestRetryRungRescuesBlownFault(t *testing.T) {
	c := circuits.MustGet("alu181")
	ref, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(ref.Circuit)
	want := scalars(ref.StuckAt(fs[0]))

	// The abort needs a fresh engine: on ref the fault's root
	// observability is cached, and the fault alone costs only its path.
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An ops budget too small for any real propagation, and a retry
	// multiplier large enough that the relaxed attempt is effectively
	// unbounded: the ladder must convert the abort into the exact result.
	e.SetFaultBudget(FaultBudget{Ops: 10})
	e.SetRecovery(Recovery{RetryMultiplier: 1e12})
	if _, aborted := analyzeBudgeted(t, e, fs[0]); !aborted {
		t.Fatal("Ops=10 budget did not abort the analysis")
	}
	restore, ok := e.RelaxBudget()
	if !ok {
		t.Fatal("retry rung refused to arm")
	}
	got, aborted := analyzeBudgeted(t, e, fs[0])
	restore()
	if aborted {
		t.Fatal("relaxed retry still aborted")
	}
	if s := scalars(got); !reflect.DeepEqual(s, want) {
		t.Fatalf("rescued result %+v != reference %+v", s, want)
	}
	// The original tight budget is back in force: a fault whose chain ends
	// at another top reaches only uncached propagations (chains to
	// different tops are disjoint), so it must abort again.
	var other faults.StuckAt
	for _, f := range fs[1:] {
		if chainTop(e, f) != chainTop(e, fs[0]) {
			other = f
			break
		}
	}
	if _, aborted := analyzeBudgeted(t, e, other); !aborted {
		t.Fatal("restore did not reinstate the tight budget")
	}
}

// chainTop follows a stuck-at fault's chain of immediate post-dominators
// from its site to the top that ends it.
func chainTop(e *Engine, f faults.StuckAt) int {
	net := f.Net
	if f.IsBranch() {
		net = f.Gate
	}
	for e.ipdom[net] >= 0 {
		net = e.ipdom[net]
	}
	return net
}

func TestCloneCopiesRecovery(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := Recovery{NodeLimit: 1 << 20, SiftPasses: 3, RetryMultiplier: 4}
	e.SetRecovery(r)
	if got := e.Clone().Recovery(); got != r {
		t.Fatalf("clone recovery = %+v, want %+v", got, r)
	}
}
