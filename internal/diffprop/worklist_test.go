package diffprop

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// propagateSeedsFullScan is the historical O(|circuit|) propagation: every
// gate is examined in index order and selective trace skips those with
// all-False input differences. It is kept verbatim as the reference the
// production worklist (propagateSeeds) is checked against.
func (e *Engine) propagateSeedsFullScan(sd seeds) Result {
	var clk time.Time
	if e.phaseClock {
		clk = time.Now()
		// Everything between begin() and here built the difference seeds.
		e.lastPhases.Build = clk.Sub(e.phaseStart)
	}
	m := e.m
	c := e.Circuit
	delta := make(map[int]bdd.Ref, 64)
	for net, d := range sd.net {
		if d != bdd.False {
			delta[net] = d
		}
	}
	// A forced primary input differs wherever its good value disagrees
	// with the forced constant.
	for net, v := range sd.forceNet {
		if c.Gates[net].Type == netlist.Input {
			if d := e.forcedDelta(net, v); d != bdd.False {
				delta[net] = d
			}
		}
	}
	evaluated := 0
	for id, g := range c.Gates {
		if g.Type == netlist.Input {
			continue
		}
		// A forced gate output overrides any arriving difference: the
		// faulty value is the constant no matter what happens upstream.
		if v, ok := sd.forceNet[id]; ok {
			if d := e.forcedDelta(id, v); d != bdd.False {
				delta[id] = d
			} else {
				delete(delta, id)
			}
			continue
		}
		din := func(pin int) bdd.Ref {
			if v, ok := sd.forcePin[pinKey{id, pin}]; ok {
				return e.forcedDelta(g.Fanin[pin], v)
			}
			if d, ok := delta[g.Fanin[pin]]; ok {
				return d
			}
			return bdd.False
		}
		var out bdd.Ref
		switch g.Type {
		case netlist.Not, netlist.Buff:
			out = din(0)
			if out == bdd.False {
				continue
			}
		case netlist.Xor, netlist.Xnor:
			da, db := din(0), din(1)
			if da == bdd.False && db == bdd.False {
				continue // selective trace: no difference reaches this gate
			}
			evaluated++
			out = m.Xor(da, db)
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			da, db := din(0), din(1)
			if da == bdd.False && db == bdd.False {
				continue // selective trace: no difference reaches this gate
			}
			evaluated++
			fa, fb := e.good[g.Fanin[0]], e.good[g.Fanin[1]]
			if g.Type == netlist.Or || g.Type == netlist.Nor {
				fa, fb = m.Not(fa), m.Not(fb)
			}
			// ΔC = fA·ΔB ⊕ fB·ΔA ⊕ ΔA·ΔB, with the usual short cuts when
			// one input carries no difference.
			switch {
			case da == bdd.False:
				out = m.And(fa, db)
			case db == bdd.False:
				out = m.And(fb, da)
			default:
				t := m.Xor(m.And(fa, db), m.And(fb, da))
				out = m.Xor(t, m.And(da, db))
			}
		default:
			panic(fmt.Sprintf("diffprop: unexpected gate type %v", g.Type))
		}
		if out != bdd.False {
			delta[id] = out
		}
	}
	res := Result{PerPO: make([]bdd.Ref, len(c.Outputs)), Complete: bdd.False, GatesEvaluated: evaluated}
	for i, o := range c.Outputs {
		// A missing map entry yields the zero Ref, which is bdd.False: a
		// difference that never reached (or was seeded at) this output.
		d := delta[o]
		res.PerPO[i] = d
		if d != bdd.False {
			res.ObservedPOs = append(res.ObservedPOs, i)
			res.Complete = m.Or(res.Complete, d)
		}
	}
	if e.phaseClock {
		now := time.Now()
		e.lastPhases.Propagate = now.Sub(clk)
		clk = now
	}
	res.Detectability = m.SatFrac(res.Complete)
	if e.phaseClock {
		e.lastPhases.SatCount = time.Since(clk)
	}
	e.analyses++
	e.gateEvals += int64(evaluated)
	// The scan examines every gate; it restricts nothing and skips none.
	e.gatesVisited += int64(c.NumGates())
	e.lastConeGates = c.NumGates()
	if nc := m.NodeCount(); nc > e.peakNodes {
		e.peakNodes = nc
	}
	return res
}

// stuckAtSeeds opens the analysis and builds a stuck-at fault's
// difference seed for direct propagation — the reference the factored
// StuckAt is checked against. A branch fault is seeded as a forced pin,
// whose difference at that pin is the fault's excitation. Like every
// *Seeds builder it calls begin first, so seed construction is metered
// with the propagation as one unit.
func (e *Engine) stuckAtSeeds(f faults.StuckAt) seeds {
	e.begin()
	if f.IsBranch() {
		return seeds{forcePin: map[pinKey]bool{{f.Gate, f.Pin}: f.Stuck}}
	}
	return seeds{net: map[int]bdd.Ref{f.Net: e.excitation(f)}}
}

// directStuckAt answers a stuck-at query by direct difference propagation
// of the fault's own seed through the production worklist.
func (e *Engine) directStuckAt(f faults.StuckAt) Result {
	return e.propagateSeeds(e.stuckAtSeeds(f))
}

// bridgingSeeds opens the analysis and seeds both wires of a bridging
// fault with their differences, for direct propagation — the reference
// the factored Bridging is checked against.
func (e *Engine) bridgingSeeds(b faults.Bridging) seeds {
	du, dv := e.bridgingDeltas(b)
	return seeds{net: map[int]bdd.Ref{b.U: du, b.V: dv}}
}

// directBridging answers a bridging query by direct difference propagation
// of both wires' seeds jointly through the production worklist.
func (e *Engine) directBridging(b faults.Bridging) Result {
	return e.propagateSeeds(e.bridgingSeeds(b))
}

// gateSubstitutionSeeds opens the analysis and seeds the substituted
// gate's output with its difference, for direct propagation.
func (e *Engine) gateSubstitutionSeeds(gate int, wrongType netlist.GateType) seeds {
	return seeds{net: map[int]bdd.Ref{gate: e.gateSubstitutionDelta(gate, wrongType)}}
}

// pair builds two independent engines over the same circuit: one for the
// cone-restricted worklist, one for the full-gate-scan reference. Both
// start from identical cold managers, so as long as the two paths issue
// the same BDD operation sequence (the property under test) their caches
// evolve in lockstep and refs and per-analysis op counts stay directly
// comparable query after query.
func pair(t *testing.T, c *netlist.Circuit) (wl, fs *Engine) {
	t.Helper()
	var err error
	if wl, err = New(c, nil); err != nil {
		t.Fatal(err)
	}
	if fs, err = New(c, nil); err != nil {
		t.Fatal(err)
	}
	return wl, fs
}

// check builds the same query's seeds on both engines, propagates them
// through the worklist on wl and the full-scan reference on fs, and
// asserts bit-identity: same PerPO refs (both managers have seen the same
// allocation history), same complete set, same selective-trace gate
// count, and the same number of charged BDD operations — a divergence
// anywhere in the operation sequence shows up in the charge meter.
func check(t *testing.T, label string, wl, fs *Engine, query func(e *Engine) seeds) {
	t.Helper()
	got := wl.propagateSeeds(query(wl))
	gotOps := wl.AnalysisOps()
	want := fs.propagateSeedsFullScan(query(fs))
	wantOps := fs.AnalysisOps()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: worklist result %+v != full-scan %+v", label, got, want)
	}
	if gotOps != wantOps {
		t.Fatalf("%s: worklist charged %d ops, full scan %d", label, gotOps, wantOps)
	}
	if cone := wl.LastConeGates(); cone > wl.Circuit.NumNets() {
		t.Fatalf("%s: merged cone %d exceeds circuit size %d", label, cone, wl.Circuit.NumNets())
	}
}

// TestWorklistMatchesFullScanRandomCircuits is the worklist's bit-identity
// property: on hundreds of random circuits the cone-restricted worklist
// must reproduce the full-gate-scan reference exactly — same difference
// functions, same selective-trace gate counts, same BDD operation charge —
// for every fault model the engine supports.
func TestWorklistMatchesFullScanRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(1990))
	trials := 120
	if testing.Short() {
		trials = 20
	}
	var visited, skipped int64
	for trial := 0; trial < trials; trial++ {
		c := randomCircuit(rng, 4+rng.Intn(5), 8+rng.Intn(20))
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		wl, fsv := pair(t, c)
		w := wl.Circuit

		// Single stuck-at faults, net and branch flavors.
		for i := 0; i < 5; i++ {
			f := faults.StuckAt{Net: rng.Intn(w.NumNets()), Gate: -1, Pin: -1, Stuck: rng.Intn(2) == 1}
			check(t, fmt.Sprintf("trial %d %v", trial, f.Describe(w)), wl, fsv,
				func(e *Engine) seeds { return e.stuckAtSeeds(f) })
		}
		if stems := w.Stems(); len(stems) > 0 {
			net := stems[rng.Intn(len(stems))]
			g := w.Fanout()[net][0]
			for pin, fin := range w.Gates[g].Fanin {
				if fin == net {
					f := faults.StuckAt{Net: net, Gate: g, Pin: pin, Stuck: true}
					check(t, fmt.Sprintf("trial %d branch %v", trial, f.Describe(w)), wl, fsv,
						func(e *Engine) seeds { return e.stuckAtSeeds(f) })
					break
				}
			}
		}
		// Multiple stuck-at: seeds at several sites force a merged cone.
		multi := []faults.StuckAt{
			{Net: rng.Intn(w.NumNets()), Gate: -1, Pin: -1, Stuck: true},
			{Net: rng.Intn(w.NumNets()), Gate: -1, Pin: -1, Stuck: false},
		}
		check(t, fmt.Sprintf("trial %d multi", trial), wl, fsv,
			func(e *Engine) seeds { return e.multipleStuckAtSeeds(multi) })
		// Gate substitution.
		if subs := faults.AllGateSubs(w); len(subs) > 0 {
			s := subs[rng.Intn(len(subs))]
			check(t, fmt.Sprintf("trial %d %v", trial, s.Describe(w)), wl, fsv,
				func(e *Engine) seeds { return e.gateSubstitutionSeeds(s.Gate, s.WrongType) })
		}
		// Bridging (both wired types when the circuit admits any).
		for _, kind := range []faults.BridgeKind{faults.WiredAND, faults.WiredOR} {
			if all := faults.AllNFBFs(w, kind); len(all) > 0 {
				b := all[rng.Intn(len(all))]
				check(t, fmt.Sprintf("trial %d %v", trial, b.Describe(w)), wl, fsv,
					func(e *Engine) seeds { return e.bridgingSeeds(b) })
			}
		}
		v, s := wl.GateWalk()
		visited += v
		skipped += s
		if fv, fsk := fsv.GateWalk(); fsk != 0 {
			t.Fatalf("trial %d: full-scan reference skipped %d gates (visited %d)", trial, fsk, fv)
		}
	}
	// The strict-subset witness: across the whole run the worklist must
	// have skipped real work somewhere, or it is not restricting anything.
	if skipped == 0 {
		t.Fatalf("worklist skipped no gates over %d trials (visited %d)", trials, visited)
	}
}

// TestWorklistMatchesFullScanPaperCircuit extends the bit-identity
// property to a paper circuit: every c432s checkpoint stuck-at fault must
// propagate through the worklist exactly as through the full-scan
// reference. Across the set the walk footprint must account for every
// gate of every analysis, and cone restriction must have skipped real
// work.
func TestWorklistMatchesFullScanPaperCircuit(t *testing.T) {
	wl, fsv := pair(t, circuits.MustGet("c432s"))
	fs := faults.CheckpointStuckAts(wl.Circuit)
	for _, f := range fs {
		check(t, f.Describe(wl.Circuit), wl, fsv, func(e *Engine) seeds { return e.stuckAtSeeds(f) })
	}
	visited, skipped := wl.GateWalk()
	analyses, gates := int64(wl.Stats().Analyses), int64(wl.Circuit.NumGates())
	if analyses != int64(len(fs)) {
		t.Fatalf("worklist ran %d analyses for %d faults", analyses, len(fs))
	}
	if visited+skipped != analyses*gates {
		t.Fatalf("walk footprint %d visited + %d skipped != %d analyses x %d gates",
			visited, skipped, analyses, gates)
	}
	if skipped == 0 {
		t.Fatalf("worklist skipped no gates over %d c432s faults (visited %d)", len(fs), visited)
	}
}

// TestWorklistBudgetAbortMatchesFullScan pins the abort behavior: under
// the same per-fault op budget the worklist and the full scan blow at the
// same charged-op count, and after recovery — including the ladder's
// relaxed-budget retry — they still produce identical results.
func TestWorklistBudgetAbortMatchesFullScan(t *testing.T) {
	c := circuits.MustGet("c95s")
	probe, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.CheckpointStuckAts(probe.Circuit)

	tested := 0
	for _, f := range fs {
		if tested == 4 {
			break
		}
		// Cost the fault on a cold engine; fresh engines below replay the
		// same cold-cache operation sequence, so cost/2 must abort both.
		ec, err := New(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := ec.directStuckAt(f)
		cost := ec.AnalysisOps()
		if cost < 4 {
			continue
		}
		tested++
		// Refs and their epoch stamp are engine-local.
		want.PerPO, want.Complete, want.epoch = nil, bdd.False, 0

		wl, fsv := pair(t, c)
		paths := []struct {
			name string
			e    *Engine
			run  func() Result
		}{
			{"worklist", wl, func() Result { return wl.directStuckAt(f) }},
			{"full scan", fsv, func() Result { return fsv.propagateSeedsFullScan(fsv.stuckAtSeeds(f)) }},
		}
		budget := FaultBudget{Ops: cost / 2}
		for _, p := range paths {
			p.e.SetFaultBudget(budget)
			if _, abort := runAborting(t, p.e, p.run); !errors.Is(abort, bdd.ErrBudget) {
				t.Fatalf("%v: %s did not abort at ops=%d (abort=%v)", f.Describe(c), p.name, budget.Ops, abort)
			}
		}
		if a, b := wl.LastAbortOps(), fsv.LastAbortOps(); a != b {
			t.Fatalf("%v: worklist aborted at %d ops, full scan at %d", f.Describe(c), a, b)
		}

		// Recovery-ladder retry rung: a 4x relaxed budget covers the real
		// cost, so both paths must now finish with the reference result.
		for _, p := range paths {
			p.e.SetRecovery(Recovery{RetryMultiplier: 4})
			restore, ok := p.e.RelaxBudget()
			if !ok {
				t.Fatalf("%v: retry rung did not arm", f.Describe(c))
			}
			got, abort := runAborting(t, p.e, p.run)
			restore()
			if abort != nil {
				t.Fatalf("%v: %s relaxed retry aborted with %v", f.Describe(c), p.name, abort)
			}
			got.PerPO, got.Complete, got.epoch = nil, bdd.False, 0
			got.ObservedPOs = append([]int(nil), got.ObservedPOs...)
			want.ObservedPOs = append([]int(nil), want.ObservedPOs...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: %s retry result %+v != reference %+v", f.Describe(c), p.name, got, want)
			}
		}
	}
	if tested == 0 {
		t.Fatal("no fault was expensive enough to exercise the abort path")
	}
}
