package diffprop

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/simulate"
)

// --- Table 1 identities -------------------------------------------------

// TestTable1TruthTables checks the ring-sum identities over random truth
// tables: with F = f ⊕ Δ at each input, the output difference computed by
// the Table 1 formula must equal good-output XOR faulty-output.
func TestTable1TruthTables(t *testing.T) {
	err := quick.Check(func(fa, fb, da, db uint16) bool {
		FA := fa ^ da
		FB := fb ^ db
		// AND / NAND share a difference; same for OR/NOR and XOR/XNOR.
		andOK := (fa&fb)^(FA&FB) == (fa&db)^(fb&da)^(da&db)
		orOK := (fa|fb)^(FA|FB) == (^fa&db)^(^fb&da)^(da&db)
		xorOK := (fa^fb)^(FA^FB) == da^db
		notOK := ^fa^^FA == da
		return andOK && orOK && xorOK && notOK
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTable1Symbolic checks the same identities symbolically on BDDs.
func TestTable1Symbolic(t *testing.T) {
	m := bdd.NewAnon(8)
	rng := rand.New(rand.NewSource(71))
	randf := func() bdd.Ref {
		f := m.Var(rng.Intn(8))
		for i := 0; i < 6; i++ {
			g := m.Var(rng.Intn(8))
			switch rng.Intn(3) {
			case 0:
				f = m.And(f, g)
			case 1:
				f = m.Or(f, g)
			default:
				f = m.Xor(f, g)
			}
		}
		return f
	}
	for trial := 0; trial < 100; trial++ {
		fa, fb, da, db := randf(), randf(), randf(), randf()
		FA, FB := m.Xor(fa, da), m.Xor(fb, db)
		// AND.
		lhs := m.Xor(m.And(fa, fb), m.And(FA, FB))
		rhs := m.Xor(m.Xor(m.And(fa, db), m.And(fb, da)), m.And(da, db))
		if lhs != rhs {
			t.Fatal("AND identity fails symbolically")
		}
		// NAND difference equals AND difference.
		if m.Xor(m.Nand(fa, fb), m.Nand(FA, FB)) != rhs {
			t.Fatal("NAND difference must equal AND difference")
		}
		// OR.
		lhs = m.Xor(m.Or(fa, fb), m.Or(FA, FB))
		rhs = m.Xor(m.Xor(m.And(m.Not(fa), db), m.And(m.Not(fb), da)), m.And(da, db))
		if lhs != rhs {
			t.Fatal("OR identity fails symbolically")
		}
		if m.Xor(m.Nor(fa, fb), m.Nor(FA, FB)) != rhs {
			t.Fatal("NOR difference must equal OR difference")
		}
		// XOR.
		if m.Xor(m.Xor(fa, fb), m.Xor(FA, FB)) != m.Xor(da, db) {
			t.Fatal("XOR identity fails symbolically")
		}
	}
}

// --- Exactness against exhaustive simulation ----------------------------

func newEngine(t testing.TB, name string) *Engine {
	t.Helper()
	e, err := New(circuits.MustGet(name), nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestStuckAtExactness(t *testing.T) {
	for _, name := range []string{"c17", "fadd", "c95s", "alu181"} {
		e := newEngine(t, name)
		w := e.Circuit
		for _, f := range faults.CheckpointStuckAts(w) {
			got := e.StuckAt(f).Detectability
			want := simulate.ExhaustiveDetectabilityStuckAt(w, f)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%s %v: DP=%v exhaustive=%v", name, f.Describe(w), got, want)
			}
		}
	}
}

func TestStuckAtExactnessAllNets(t *testing.T) {
	// Every net fault, not just checkpoints, on the two tiniest circuits.
	for _, name := range []string{"c17", "fadd"} {
		e := newEngine(t, name)
		w := e.Circuit
		for _, f := range faults.AllStuckAts(w) {
			got := e.StuckAt(f).Detectability
			want := simulate.ExhaustiveDetectabilityStuckAt(w, f)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%s %v: DP=%v exhaustive=%v", name, f.Describe(w), got, want)
			}
		}
	}
}

func TestBridgingExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, name := range []string{"c17", "fadd", "c95s", "alu181"} {
		e := newEngine(t, name)
		w := e.Circuit
		for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
			all := faults.AllNFBFs(w, kind)
			// Sample up to 40 per kind for runtime.
			for trial := 0; trial < 40 && trial < len(all); trial++ {
				b := all[rng.Intn(len(all))]
				got := e.Bridging(b).Detectability
				want := simulate.ExhaustiveDetectabilityBridging(w, b)
				if math.Abs(got-want) > 1e-12 {
					t.Errorf("%s %v: DP=%v exhaustive=%v", name, b.Describe(w), got, want)
				}
			}
		}
	}
}

func TestPerPOAgainstExhaustive(t *testing.T) {
	e := newEngine(t, "c17")
	w := e.Circuit
	p := simulate.Exhaustive(len(w.Inputs))
	for _, f := range faults.CheckpointStuckAts(w) {
		res := e.StuckAt(f)
		// Per-PO reference: compare good vs faulty at each output alone by
		// restricting the circuit to one output at a time.
		for i, o := range w.Outputs {
			single := w.Clone()
			single.Outputs = []int{o}
			mask := simulate.DetectStuckAt(single, f, p)
			wantCount := simulate.CountBits(mask)
			gotCount := int(e.Manager().CountMinterms64(res.PerPO[i]))
			if gotCount != wantCount {
				t.Fatalf("%v PO %d: DP %d tests, exhaustive %d", f.Describe(w), i, gotCount, wantCount)
			}
		}
	}
}

func TestObservedPOsSubsetOfPOsFed(t *testing.T) {
	for _, name := range []string{"c95s", "alu181"} {
		e := newEngine(t, name)
		w := e.Circuit
		for _, f := range faults.CheckpointStuckAts(w) {
			res := e.StuckAt(f)
			fed := w.POsFed(f.Net)
			fedSet := map[int]bool{}
			for _, po := range fed {
				fedSet[po] = true
			}
			for _, po := range res.ObservedPOs {
				if !fedSet[po] {
					t.Fatalf("%s %v observable at PO %d outside its fan-out cone", name, f.Describe(w), po)
				}
			}
			if res.Detectable() != (len(res.ObservedPOs) > 0) {
				t.Fatal("Detectable inconsistent with ObservedPOs")
			}
		}
	}
}

// --- Syndromes, bounds, adherence ---------------------------------------

func TestSyndromeMatchesSimulation(t *testing.T) {
	e := newEngine(t, "c95s")
	w := e.Circuit
	p := simulate.Exhaustive(len(w.Inputs))
	vals := simulate.GoodValues(w, p)
	for net := 0; net < w.NumNets(); net++ {
		want := float64(simulate.CountBits(vals[net])) / float64(p.Count)
		got := e.Syndrome(net)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("net %s syndrome DP=%v sim=%v", w.NetName(net), got, want)
		}
		// Cached second read must agree.
		if e.Syndrome(net) != got {
			t.Fatal("syndrome cache broken")
		}
	}
}

func TestUpperBoundsHold(t *testing.T) {
	for _, name := range []string{"c17", "c95s", "alu181"} {
		e := newEngine(t, name)
		w := e.Circuit
		for _, f := range faults.CheckpointStuckAts(w) {
			res := e.StuckAt(f)
			ub := e.StuckAtUpperBound(f)
			if res.Detectability > ub+1e-12 {
				t.Fatalf("%s %v: detectability %v exceeds syndrome bound %v",
					name, f.Describe(w), res.Detectability, ub)
			}
			if a, ok := Adherence(res.Detectability, ub); ok && (a < 0 || a > 1) {
				t.Fatalf("adherence %v out of range", a)
			}
		}
		for _, b := range faults.AllNFBFs(w, faults.WiredAND)[:10] {
			res := e.Bridging(b)
			ub := e.BridgingUpperBound(b)
			if res.Detectability > ub+1e-12 {
				t.Fatalf("%s %v: detectability %v exceeds excitation bound %v",
					name, b.Describe(w), res.Detectability, ub)
			}
		}
	}
}

func TestPOFaultAdherenceIsOne(t *testing.T) {
	// §4.1: "PO faults always have adherence values of one" — every
	// excitation of a fault on a primary output is immediately a test.
	e := newEngine(t, "alu181")
	w := e.Circuit
	for _, o := range w.Outputs {
		for _, stuck := range []bool{false, true} {
			f := faults.StuckAt{Net: o, Gate: -1, Pin: -1, Stuck: stuck}
			res := e.StuckAt(f)
			ub := e.StuckAtUpperBound(f)
			a, ok := Adherence(res.Detectability, ub)
			if !ok {
				continue // constant output line cannot be excited
			}
			if math.Abs(a-1) > 1e-12 {
				t.Fatalf("PO fault %v adherence = %v, want 1", f.Describe(w), a)
			}
		}
	}
}

func TestAdherenceEdgeCases(t *testing.T) {
	if _, ok := Adherence(0, 0); ok {
		t.Fatal("zero bound must report not-ok")
	}
	if a, ok := Adherence(0.25, 0.5); !ok || a != 0.5 {
		t.Fatal("adherence arithmetic wrong")
	}
	if a, _ := Adherence(0.5000000001, 0.5); a != 1 {
		t.Fatal("rounding guard failed")
	}
}

// --- Figure 5 classification --------------------------------------------

func TestBridgeActsStuckAt(t *testing.T) {
	// Build a circuit where two nets are disjoint (AND bridge is a double
	// SA0) and two nets cover the space (OR bridge is a double SA1).
	c := netlist.New("sa-bridges")
	a := c.AddInput("a")
	b := c.AddInput("b")
	x := c.AddGate("x", netlist.And, a, b)   // ab
	y := c.AddGate("y", netlist.Nor, a, b)   // ¬a¬b : disjoint from ab
	u := c.AddGate("u", netlist.Or, a, b)    // a+b
	v := c.AddGate("v", netlist.Nand, a, b)  // ¬(ab) : u|v tautology
	z1 := c.AddGate("z1", netlist.Xor, x, y) // consume everything
	z2 := c.AddGate("z2", netlist.Xor, u, v)
	z3 := c.AddGate("z3", netlist.And, z1, z2)
	c.MarkOutput(z3)
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := e.Circuit
	n := func(s string) int { return w.NetByName(s) }
	// x∧y ≡ 0: wired-AND bridge behaves as both wires stuck-at-0.
	if !e.BridgeActsStuckAt(faults.Bridging{U: n("x"), V: n("y"), Kind: faults.WiredAND}) {
		t.Fatal("disjoint wires: AND bridge must classify as stuck-at")
	}
	// u∨v ≡ 1: wired-OR bridge behaves as both wires stuck-at-1.
	if !e.BridgeActsStuckAt(faults.Bridging{U: n("u"), V: n("v"), Kind: faults.WiredOR}) {
		t.Fatal("covering wires: OR bridge must classify as stuck-at")
	}
	// Generic pairs are not stuck-at-like.
	if e.BridgeActsStuckAt(faults.Bridging{U: n("a"), V: n("b"), Kind: faults.WiredAND}) {
		t.Fatal("a∧b is not constant")
	}
	if e.BridgeActsStuckAt(faults.Bridging{U: n("a"), V: n("b"), Kind: faults.WiredOR}) {
		t.Fatal("a∨b is not constant")
	}
}

func TestBridgeActsStuckAtMatchesBruteForce(t *testing.T) {
	e := newEngine(t, "c95s")
	w := e.Circuit
	p := simulate.Exhaustive(len(w.Inputs))
	vals := simulate.GoodValues(w, p)
	rng := rand.New(rand.NewSource(79))
	for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
		all := faults.AllNFBFs(w, kind)
		for trial := 0; trial < 60; trial++ {
			b := all[rng.Intn(len(all))]
			// Brute force: is the wired function constant?
			count := 0
			for wd := range vals[b.U] {
				var x uint64
				if kind == faults.WiredAND {
					x = vals[b.U][wd] & vals[b.V][wd]
				} else {
					x = vals[b.U][wd] | vals[b.V][wd]
				}
				count += simulate.CountBits([]uint64{x})
			}
			want := count == 0 || count == p.Count
			if got := e.BridgeActsStuckAt(b); got != want {
				t.Fatalf("%v: classify=%v, brute force=%v", b.Describe(w), got, want)
			}
		}
	}
}

// --- Engine mechanics ----------------------------------------------------

func TestCompactionPreservesExactness(t *testing.T) {
	c := circuits.MustGet("c95s")
	e, err := New(c, &Options{RebuildLimit: 2000}) // force frequent rebuilds
	if err != nil {
		t.Fatal(err)
	}
	w := e.Circuit
	for _, f := range faults.CheckpointStuckAts(w) {
		got := e.StuckAt(f).Detectability
		want := simulate.ExhaustiveDetectabilityStuckAt(w, f)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%v after compaction: DP=%v exhaustive=%v", f.Describe(w), got, want)
		}
	}
	if e.Rebuilds() == 0 {
		t.Fatal("rebuild limit of 2000 nodes must trigger compaction on c95s")
	}
}

func TestCustomOrderGivesSameResults(t *testing.T) {
	c := circuits.MustGet("alu181")
	e1 := newEngine(t, "alu181")
	rev := e1.Circuit.InputNames()
	sort.Sort(sort.Reverse(sort.StringSlice(rev)))
	e2, err := New(c, &Options{Order: rev})
	if err != nil {
		t.Fatal(err)
	}
	w := e1.Circuit
	for _, f := range faults.CheckpointStuckAts(w)[:20] {
		d1 := e1.StuckAt(f).Detectability
		d2 := e2.StuckAt(f).Detectability
		if math.Abs(d1-d2) > 1e-12 {
			t.Fatalf("%v: order changed detectability %v vs %v", f.Describe(w), d1, d2)
		}
	}
}

func TestDFSOrderIsPermutation(t *testing.T) {
	for _, name := range []string{"c17", "alu181", "c432s", "c499s"} {
		c := circuits.MustGet(name)
		order := DFSOrder(c)
		if len(order) != len(c.Inputs) {
			t.Fatalf("%s: DFS order has %d names, want %d", name, len(order), len(c.Inputs))
		}
		seen := map[string]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("%s: duplicate %q in DFS order", name, n)
			}
			seen[n] = true
			if c.NetByName(n) < 0 || !c.IsInput(c.NetByName(n)) {
				t.Fatalf("%s: %q is not an input", name, n)
			}
		}
	}
}

func TestDFSOrderUsableByEngine(t *testing.T) {
	c := circuits.MustGet("c499s")
	e, err := New(c, &Options{Order: DFSOrder(c.Decompose2())})
	if err != nil {
		t.Fatal(err)
	}
	// Spot check one fault end to end.
	f := faults.CheckpointStuckAts(e.Circuit)[0]
	res := e.StuckAt(f)
	if !res.Detectable() {
		t.Fatal("first checkpoint fault of c499s must be detectable")
	}
}

func TestMinimalTestCube(t *testing.T) {
	e := newEngine(t, "c95s")
	w := e.Circuit
	m := e.Manager()
	for _, f := range faults.CheckpointStuckAts(w)[:40] {
		res := e.StuckAt(f)
		cube := e.MinimalTestCube(res)
		if !res.Detectable() {
			if cube != nil {
				t.Fatal("undetectable fault must yield nil cube")
			}
			continue
		}
		// Every completion of the cube is a test: cube → Complete.
		cubeF := bdd.True
		spec := 0
		for v, s := range cube {
			switch s {
			case 0:
				cubeF = m.And(cubeF, m.NVar(v))
				spec++
			case 1:
				cubeF = m.And(cubeF, m.Var(v))
				spec++
			}
		}
		if m.And(cubeF, m.Not(res.Complete)) != bdd.False {
			t.Fatalf("%v: minimal cube is not contained in the test set", f.Describe(w))
		}
		// Local minimality: no remaining literal can be dropped.
		for v, s := range cube {
			if s < 0 {
				continue
			}
			wide := append([]int8(nil), cube...)
			wide[v] = -1
			wf := bdd.True
			for vv, ss := range wide {
				switch ss {
				case 0:
					wf = m.And(wf, m.NVar(vv))
				case 1:
					wf = m.And(wf, m.Var(vv))
				}
			}
			if m.And(wf, m.Not(res.Complete)) == bdd.False {
				t.Fatalf("%v: literal on %s still droppable", f.Describe(w), m.VarName(v))
			}
		}
		// Sanity: a cube from a path can only get wider.
		if spec > len(w.Inputs) {
			t.Fatal("cube wider than the input space")
		}
	}
	// Redundant fault path.
	c := netlist.New("red")
	a := c.AddInput("a")
	b := c.AddInput("b")
	ab := c.AddGate("ab", netlist.And, a, b)
	z := c.AddGate("z", netlist.Or, a, ab)
	c.MarkOutput(z)
	er, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := er.StuckAt(faults.StuckAt{Net: er.Circuit.NetByName("ab"), Gate: -1, Pin: -1, Stuck: false})
	if er.MinimalTestCube(res) != nil {
		t.Fatal("redundant fault must yield nil cube")
	}
}

// checkDirect runs one fault both ways on e — the production factored
// query and direct propagation of the fault's own seeds — and reports any
// difference in detectability, observed outputs or per-PO difference
// functions. The reference runs with compaction held off so both queries
// land in the same table epoch and their refs are comparable; the factored
// query itself still compacts on entry whenever the engine's limit says so.
func checkDirect(e *Engine, label string, factored, direct func() Result) error {
	got := factored()
	limit := e.rebuildLimit
	e.rebuildLimit = math.MaxInt
	want := direct()
	e.rebuildLimit = limit
	if got.epoch != want.epoch {
		return fmt.Errorf("%s: queries straddle a compaction (epochs %d, %d)", label, got.epoch, want.epoch)
	}
	if got.Detectability != want.Detectability || got.Complete != want.Complete ||
		!reflect.DeepEqual(got.ObservedPOs, want.ObservedPOs) || !reflect.DeepEqual(got.PerPO, want.PerPO) {
		return fmt.Errorf("%s: factored %v (observed %v) != direct %v (observed %v)", label,
			got.Detectability, got.ObservedPOs, want.Detectability, want.ObservedPOs)
	}
	return nil
}

// checkFactored is checkDirect for a stuck-at fault.
func checkFactored(e *Engine, f faults.StuckAt) error {
	return checkDirect(e, f.Describe(e.Circuit),
		func() Result { return e.StuckAt(f) }, func() Result { return e.directStuckAt(f) })
}

// checkBridging is checkDirect for a bridging fault.
func checkBridging(e *Engine, b faults.Bridging) error {
	return checkDirect(e, b.Describe(e.Circuit),
		func() Result { return e.Bridging(b) }, func() Result { return e.directBridging(b) })
}

// stride returns at most n elements of xs, evenly spaced from the first:
// a deterministic sample that spans the whole (net-ordered) population.
func stride[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// TestStuckAtMatchesDirectPropagation is the exactness property of the
// post-dominator factoring: for every stuck-at fault on every net and
// every branch, StuckAt (the excitation carried up the chain of cached
// transfers and ANDed with the top's cached observability) must equal
// direct difference propagation bit for bit. It runs two ways: on a
// default engine, and under a rebuild limit so small that the table is
// compacted before every fault, so each cached transfer and root
// observability goes stale before its next use. alu181_xnand, alu181 with
// every XOR expanded into four NANDs, is the reconvergent topology the
// transfers target. c1355s joins the default way outside -short; the
// compacting way compacts thousands of times and stays on the smaller
// circuits. Under the race detector the sweep stops at c499s: c1355s would
// add minutes of instrumented BDD work and no new code path.
func TestStuckAtMatchesDirectPropagation(t *testing.T) {
	names := []string{"c17", "fadd", "c95s", "alu181", "alu181_xnand", "c432s", "c499s"}
	if !raceEnabled && !testing.Short() {
		names = append(names, "c1355s")
	}
	for _, name := range names {
		c := exactnessCircuit(name)
		t.Run(name+"/default", func(t *testing.T) {
			e, err := New(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range faults.AllStuckAts(e.Circuit) {
				if err := checkFactored(e, f); err != nil {
					t.Fatal(err)
				}
			}
			s := e.Stats()
			if s.RootPropagations == 0 || 2*s.RootPropagations >= s.Analyses {
				t.Fatalf("%d root propagations for %d analyses: chains do not share their top",
					s.RootPropagations, s.Analyses)
			}
			if name == "alu181_xnand" && s.Transfers == 0 {
				t.Fatal("no transfer fills on the expanded XORs")
			}
		})
		if name == "c1355s" {
			continue
		}
		t.Run(name+"/compacting", func(t *testing.T) {
			e, err := New(c, &Options{RebuildLimit: 1})
			if err != nil {
				t.Fatal(err)
			}
			fs := faults.AllStuckAts(e.Circuit)
			for _, f := range fs {
				if err := checkFactored(e, f); err != nil {
					t.Fatal(err)
				}
			}
			if e.Rebuilds() < len(fs) {
				t.Fatalf("%d compactions for %d faults: the limit did not force one per fault", e.Rebuilds(), len(fs))
			}
		})
	}
}

// TestBridgingMatchesDirectPropagation is the exactness property of
// factored bridging: a non-feedback bridge's two wire differences are
// disjoint, so Bridging climbs each wire's post-dominator chain alone and
// ORs the two top steps, and that must equal direct propagation of both
// seeds jointly, bit for bit, for wired-AND and wired-OR. The default way
// runs the complete NFBF populations of the small circuits and a stride
// sample of the larger ones; the compacting way compacts before every
// bridge, so every cached transfer and observability goes stale between
// uses. Under the race detector the sweep stops at c95s.
func TestBridgingMatchesDirectPropagation(t *testing.T) {
	names := []string{"c17", "fadd", "c95s", "alu181", "alu181_xnand", "c432s"}
	if raceEnabled {
		names = names[:3]
	}
	kinds := []faults.BridgeKind{faults.WiredAND, faults.WiredOR}
	for _, name := range names {
		c := exactnessCircuit(name)
		t.Run(name+"/default", func(t *testing.T) {
			e, err := New(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, kind := range kinds {
				all := faults.AllNFBFs(e.Circuit, kind)
				if name == "alu181_xnand" || name == "c432s" {
					all = stride(all, 2000)
				}
				for _, b := range all {
					if err := checkBridging(e, b); err != nil {
						t.Fatal(err)
					}
				}
				n += len(all)
			}
			s := e.Stats()
			if s.RootPropagations == 0 || 2*s.RootPropagations >= n {
				t.Fatalf("%d root propagations for %d bridges: chains do not share their top", s.RootPropagations, n)
			}
			if name == "alu181_xnand" && s.Transfers == 0 {
				t.Fatal("no transfer fills on the expanded XORs")
			}
		})
		t.Run(name+"/compacting", func(t *testing.T) {
			e, err := New(c, &Options{RebuildLimit: 1})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, kind := range kinds {
				for _, b := range stride(faults.AllNFBFs(e.Circuit, kind), 250) {
					if err := checkBridging(e, b); err != nil {
						t.Fatal(err)
					}
					n++
				}
			}
			if e.Rebuilds() < n {
				t.Fatalf("%d compactions for %d bridges: the limit did not force one per bridge", e.Rebuilds(), n)
			}
		})
	}
}

// TestBridgingLargeCircuitCrossCheck carries the bridging exactness check
// to the large paper circuits, where exhaustive simulation is out of
// reach: on a stride sample of c1355s's and c1908s's NFBFs of both kinds,
// factored Bridging must equal direct propagation bit for bit, and every
// detectable bridge's witness vector must detect it in the 64-way
// bit-parallel simulator. Direct propagation runs a few bridges per second
// on c1908s, so the sample stays small, and the check is skipped under
// -short and the race detector.
func TestBridgingLargeCircuitCrossCheck(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("large-circuit direct propagation: skipped under -short and -race")
	}
	for _, name := range []string{"c1355s", "c1908s"} {
		t.Run(name, func(t *testing.T) {
			e := newEngine(t, name)
			w := e.Circuit
			detected := 0
			for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
				for _, b := range stride(faults.AllNFBFs(w, kind), 10) {
					if err := checkBridging(e, b); err != nil {
						t.Fatal(err)
					}
					res := e.Bridging(b)
					vec := e.WitnessVector(res)
					if vec == nil {
						if res.Detectable() {
							t.Fatalf("%s: detectable bridge without witness", b.Describe(w))
						}
						continue
					}
					pv := simulate.FromVectors(len(w.Inputs), [][]bool{vec})
					if simulate.CountBits(simulate.DetectBridging(w, b, pv)) != 1 {
						t.Fatalf("%s: witness does not detect the bridge", b.Describe(w))
					}
					detected++
				}
			}
			if detected == 0 {
				t.Fatal("no detectable bridge in the sample: the witness check ran on nothing")
			}
		})
	}
}

// exactnessCircuit resolves a catalog name, or a catalog name with an
// "_xnand" suffix to that circuit with its XORs expanded into NANDs.
func exactnessCircuit(name string) *netlist.Circuit {
	if base, ok := strings.CutSuffix(name, "_xnand"); ok {
		return circuits.MustGet(base).ExpandXOR()
	}
	return circuits.MustGet(name)
}

// TestStaleResultFailsLoudly checks the epoch stamp on results: witness
// extraction from a result that outlived a compaction must panic naming
// both epochs, while a fresh result's witness must detect its fault in the
// 64-way bit-parallel simulator.
func TestStaleResultFailsLoudly(t *testing.T) {
	e := newEngine(t, "c432s")
	w := e.Circuit
	var detectable faults.StuckAt
	for _, f := range faults.CheckpointStuckAts(w) {
		res := e.StuckAt(f)
		vec := e.WitnessVector(res)
		if vec == nil {
			if res.Detectable() {
				t.Fatalf("%s: detectable fault without witness", f.Describe(w))
			}
			continue
		}
		detectable = f
		pv := simulate.FromVectors(len(w.Inputs), [][]bool{vec})
		if simulate.CountBits(simulate.DetectStuckAt(w, f, pv)) != 1 {
			t.Fatalf("%s: witness does not detect the fault", f.Describe(w))
		}
	}

	res := e.StuckAt(detectable)
	e.GCNow()
	for name, use := range map[string]func(){
		"WitnessVector":   func() { e.WitnessVector(res) },
		"MinimalTestCube": func() { e.MinimalTestCube(res) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("computed at table epoch %d, table is at epoch %d", res.epoch, e.Manager().TableEpoch())
				if !strings.Contains(msg, name) || !strings.Contains(msg, want) {
					t.Fatalf("%s on a stale result: panic %q, want one naming %q", name, msg, want)
				}
			}()
			use()
		}()
	}
}

func TestObservabilityProperties(t *testing.T) {
	for _, name := range []string{"c17", "c432s", "alu181_xnand"} {
		t.Run(name, func(t *testing.T) {
			e, err := New(exactnessCircuit(name), nil)
			if err != nil {
				t.Fatal(err)
			}
			w := e.Circuit
			m := e.Manager()
			// A PO net is always observable.
			for _, o := range w.Outputs {
				if e.Observability(o) != bdd.True {
					t.Fatalf("PO %s must be observable everywhere", w.NetName(o))
				}
			}
			// The SA0 and SA1 test sets of a net partition its observability:
			// T(SA0) ∪ T(SA1) = Obs and T(SA0) ∩ T(SA1) = ∅.
			for net := 0; net < w.NumNets(); net++ {
				t0 := e.StuckAt(faults.StuckAt{Net: net, Gate: -1, Pin: -1, Stuck: false}).Complete
				t1 := e.StuckAt(faults.StuckAt{Net: net, Gate: -1, Pin: -1, Stuck: true}).Complete
				obs := e.Observability(net)
				if m.Or(t0, t1) != obs {
					t.Fatalf("net %s: SA0 ∪ SA1 tests != observability", w.NetName(net))
				}
				if m.And(t0, t1) != bdd.False {
					t.Fatalf("net %s: SA0 and SA1 tests overlap", w.NetName(net))
				}
			}
		})
	}
}

func TestCutDecompositionTriggersAndStaysSane(t *testing.T) {
	c := circuits.MustGet("c95s")
	exact := newEngine(t, "c95s")
	cut, err := New(c, &Options{CutThreshold: 24, MaxCuts: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.CutNets()) == 0 {
		t.Fatal("threshold 24 on a multiplier must introduce cuts")
	}
	if len(cut.CutNets()) > 16 {
		t.Fatal("cut budget exceeded")
	}
	fs := faults.CheckpointStuckAts(exact.Circuit)
	var exactMean, cutMean float64
	n := 0
	for _, f := range fs {
		de := exact.StuckAt(f).Detectability
		dc := cut.StuckAt(f).Detectability
		if dc < 0 || dc > 1 {
			t.Fatalf("cut detectability %v out of range for %v", dc, f.Describe(exact.Circuit))
		}
		exactMean += de
		cutMean += dc
		n++
	}
	exactMean /= float64(n)
	cutMean /= float64(n)
	// Decomposition is an approximation (the paper's §4.2 caveat), but on
	// this circuit it must stay in the same regime as the exact figures.
	if math.Abs(exactMean-cutMean) > 0.15 {
		t.Fatalf("cut approximation too far off: exact mean %v vs cut mean %v", exactMean, cutMean)
	}
}

func TestCutDecompositionMasksBridgingClassification(t *testing.T) {
	// The paper's §4.2 caveat, reproduced deliberately: "functional
	// decomposition was used to speed up Difference Propagation, so the
	// fractions of NFBFs which are also double stuck-at faults ... may not
	// be completely accurate due to the decomposition masking some
	// functional interactions."
	//
	// u = a∧b and v = ¬a∧¬b are disjoint, so the wired-AND bridge between
	// them is exactly a double stuck-at-0. Cutting u hides that
	// interaction: the site function becomes cutvar∧f_v, which is not
	// constant, and the classification flips.
	c := netlist.New("caveat")
	a := c.AddInput("a")
	b := c.AddInput("b")
	u := c.AddGate("u", netlist.And, a, b)
	v := c.AddGate("v", netlist.Nor, a, b)
	// Consume both so the bridge is meaningful; u's complement-edge BDD
	// (two decision nodes + the terminal) exceeds a tiny cut threshold.
	z1 := c.AddGate("z1", netlist.Xor, u, v)
	c.MarkOutput(z1)

	exact, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	we := exact.Circuit
	bf := faults.Bridging{U: we.NetByName("u"), V: we.NetByName("v"), Kind: faults.WiredAND}
	if !exact.BridgeActsStuckAt(bf) {
		t.Fatal("disjoint pair must classify as stuck-at under exact analysis")
	}

	cut, err := New(c, &Options{CutThreshold: 2, MaxCuts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.CutNets()) == 0 {
		t.Fatal("cut threshold 2 must cut something")
	}
	wc := cut.Circuit
	bfc := faults.Bridging{U: wc.NetByName("u"), V: wc.NetByName("v"), Kind: faults.WiredAND}
	if cut.BridgeActsStuckAt(bfc) {
		t.Fatal("decomposition should mask the interaction — the paper's inaccuracy caveat")
	}
}

func TestHugeCutThresholdMatchesExact(t *testing.T) {
	c := circuits.MustGet("c17")
	exact := newEngine(t, "c17")
	cut, err := New(c, &Options{CutThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.CutNets()) != 0 {
		t.Fatal("huge threshold must introduce no cuts")
	}
	for _, f := range faults.CheckpointStuckAts(exact.Circuit) {
		if exact.StuckAt(f).Detectability != cut.StuckAt(f).Detectability {
			t.Fatal("uncut engine must be exact")
		}
	}
}

func TestVarToInputMarksCutVars(t *testing.T) {
	c := circuits.MustGet("c95s")
	cut, err := New(c, &Options{CutThreshold: 24, MaxCuts: 8})
	if err != nil {
		t.Fatal(err)
	}
	v2i := cut.VarToInput()
	neg := 0
	for _, i := range v2i {
		if i < 0 {
			neg++
		}
	}
	if neg != 8 {
		t.Fatalf("%d cut variables flagged, want 8", neg)
	}
	// Assignment must not panic with cut variables present.
	vec := make([]bool, len(cut.Circuit.Inputs))
	if got := cut.Assignment(vec); len(got) != cut.NumVars() {
		t.Fatal("assignment width wrong")
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	bad := netlist.New("bad")
	if _, err := New(bad, nil); err == nil {
		t.Fatal("invalid circuit must be rejected")
	}
	c := circuits.MustGet("c17")
	if _, err := New(c, &Options{Order: []string{"1", "2"}}); err == nil {
		t.Fatal("short order must be rejected")
	}
	if _, err := New(c, &Options{Order: []string{"1", "2", "3", "6", "zz"}}); err == nil {
		t.Fatal("unknown input name must be rejected")
	}
}

func TestBridgingRejectsFeedback(t *testing.T) {
	e := newEngine(t, "c17")
	w := e.Circuit
	defer func() {
		if recover() == nil {
			t.Fatal("feedback bridge must panic")
		}
	}()
	e.Bridging(faults.Bridging{U: w.NetByName("11"), V: w.NetByName("16"), Kind: faults.WiredAND})
}

func TestRedundantFaultHasEmptyTestSet(t *testing.T) {
	// z = a OR (a AND b) == a: the AND output SA0 is redundant; DP must
	// prove it with an identically-false complete test set.
	c := netlist.New("red")
	a := c.AddInput("a")
	b := c.AddInput("b")
	ab := c.AddGate("ab", netlist.And, a, b)
	z := c.AddGate("z", netlist.Or, a, ab)
	c.MarkOutput(z)
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := e.Circuit
	res := e.StuckAt(faults.StuckAt{Net: w.NetByName("ab"), Gate: -1, Pin: -1, Stuck: false})
	if res.Detectable() || res.Detectability != 0 || len(res.ObservedPOs) != 0 {
		t.Fatal("redundant fault must have an empty complete test set")
	}
}

func TestCompleteTestSetIsExactlyTheTests(t *testing.T) {
	// Every minterm of Complete must detect the fault; every pattern
	// outside must not. Verified exhaustively on the full adder.
	e := newEngine(t, "fadd")
	w := e.Circuit
	for _, f := range faults.AllStuckAts(w) {
		res := e.StuckAt(f)
		mask := simulate.DetectStuckAt(w, f, simulate.Exhaustive(len(w.Inputs)))
		for idx := 0; idx < 1<<len(w.Inputs); idx++ {
			in := make([]bool, len(w.Inputs))
			for j := range in {
				in[j] = idx>>j&1 == 1
			}
			inDP := e.Manager().Eval(res.Complete, e.Assignment(in))
			inSim := mask[idx/64]>>uint(idx%64)&1 == 1
			if inDP != inSim {
				t.Fatalf("%v pattern %03b: DP says %v, simulation says %v", f.Describe(w), idx, inDP, inSim)
			}
		}
	}
}
