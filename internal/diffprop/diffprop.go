// Package diffprop implements Difference Propagation, the paper's core
// contribution (§3): an OBDD-based functional analysis that computes, for
// any logical fault, the complete test set as a Boolean function of the
// primary inputs and therefore the exact detection probability.
//
// For every net i the engine holds the good function f_i. A fault defines
// a difference function Δf_i = f_i ⊕ F_i (good XOR faulty) at its site;
// the engine propagates differences toward the primary outputs using the
// ring-sum identities of Table 1, which need only the good functions and
// the input differences:
//
//	AND/NAND: ΔC = f_A·Δ_B ⊕ f_B·Δ_A ⊕ Δ_A·Δ_B
//	OR/NOR:   ΔC = ¬f_A·Δ_B ⊕ ¬f_B·Δ_A ⊕ Δ_A·Δ_B
//	XOR/XNOR: ΔC = Δ_A ⊕ Δ_B
//	NOT/BUFF: ΔC = Δ_A
//
// (output inversion leaves a difference unchanged). Gates with more than
// two inputs are decomposed into two-input trees first, exactly as §3
// prescribes, and — in the manner of selective trace — a gate is only
// evaluated while some input difference is non-zero.
package diffprop

import (
	"fmt"
	"log/slog"
	"math/bits"
	"time"

	"repro/internal/bdd"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// FaultBudget bounds the resources a single fault analysis may consume.
// Ops caps the number of charged BDD operations (cache-miss recursions);
// Wall caps the wall-clock time. A zero field means unlimited. When a
// budget is exceeded the analysis panics with bdd.ErrBudget; callers
// recover at the analysis boundary and must call Engine.Recover before
// issuing further queries.
type FaultBudget struct {
	Ops  int64
	Wall time.Duration
}

func (b FaultBudget) active() bool { return b.Ops > 0 || b.Wall > 0 }

// DefaultSiftPasses is the sift-pass cap used when recovery sifting is
// enabled without an explicit budget.
const DefaultSiftPasses = 2

// Recovery configures the engine's graceful-recovery ladder — what happens
// between "a fault analysis blew a resource bound" and "degrade it to a
// simulation estimate":
//
//  1. the manager is garbage-collected in place around the good functions
//     (always, it is what Recover has always done);
//  2. when NodeLimit is set and the live good functions alone still exceed
//     it, up to SiftPasses variable-reordering passes try to shrink them
//     (the blowup was order-induced);
//  3. when RetryMultiplier > 1, the caller may re-attempt the fault once
//     under budgets scaled by the multiplier (see RelaxBudget).
//
// The zero value disables the watermark, the sift rung and the retry rung,
// leaving the engine's historical behavior unchanged.
type Recovery struct {
	// NodeLimit arms a per-analysis BDD node-count soft watermark: an
	// analysis that would grow the table past it aborts with
	// bdd.ErrNodeLimit and enters the ladder. The armed limit is raised to
	// 1.5x the live node count when the configured value leaves no
	// headroom, so the good functions alone can never trip it. 0 disarms.
	NodeLimit int
	// SiftPasses caps the reordering passes of the sift rung (0 disables
	// sifting).
	SiftPasses int
	// RetryMultiplier scales FaultBudget.Ops, FaultBudget.Wall and
	// NodeLimit for a single relaxed re-attempt of a blown fault
	// (values <= 1 disable the retry rung).
	RetryMultiplier float64
}

// Options configures an Engine.
type Options struct {
	// Order lists the primary input names in BDD variable order. Empty
	// selects the DFS-from-outputs heuristic (DFSOrder), which interleaves
	// related inputs; pass Circuit.InputNames() to force the benchmark
	// declaration order the paper used.
	Order []string
	// RebuildLimit triggers generational garbage collection of the BDD
	// manager when the node table exceeds this size, and caps the
	// manager's operation cache at half of it. Zero selects
	// DefaultRebuildLimit. A parallel campaign splits the limit evenly
	// over its workers' private managers, so the campaign-wide node
	// budget does not grow with the worker count.
	RebuildLimit int
	// CutThreshold enables the paper's functional decomposition speedup
	// (§4.2, ref [21]): a net whose good-function BDD exceeds this many
	// nodes is cut — replaced downstream by a fresh cut variable. Results
	// then become approximations (the decomposition can mask functional
	// interactions, exactly as the paper warns for its C499-and-larger
	// Figure 5 data); detectabilities and syndromes are computed over the
	// extended variable space. Zero disables cutting (exact analysis).
	CutThreshold int
	// MaxCuts bounds the number of cut variables (default 64). When the
	// budget is exhausted, later oversized nets are kept exact.
	MaxCuts int
}

// DefaultRebuildLimit is the node count at which an engine compacts its
// BDD manager when Options.RebuildLimit is zero.
const DefaultRebuildLimit = 4 << 20

// Engine analyzes one circuit. An Engine is not safe for concurrent use;
// Clone gives each goroutine an engine with a BDD manager of its own.
// Results returned by Engine methods hold BDD references that stay valid
// only until the next Engine call (the engine may compact its manager
// between faults).
type Engine struct {
	// Circuit is the two-input working copy of the analyzed circuit; all
	// fault sites passed to the engine must refer to ITS net numbering.
	Circuit *netlist.Circuit

	m            *bdd.Manager
	good         []bdd.Ref
	rebuildLimit int
	rebuilds     int

	// cutNets lists the nets replaced by cut variables under functional
	// decomposition (empty for exact analysis).
	cutNets []int

	syndromes []float64
	synValid  []bool

	// varToInput maps each BDD variable position to its primary-input
	// declaration index (-1 for cut variables). The mapping is invariant
	// for the engine's lifetime, so it is computed once in New.
	varToInput []int

	// reach is the fan-out reachability table: one packed bitset row per
	// net, built once in New and aliased by every Clone. It doubles as the
	// levelized cone index behind the worklist propagation (rows are in
	// topological order by construction) and as the O(1) feedback screen
	// for bridging faults.
	reach *faults.Reachability

	// ipdom is the immediate post-dominator table: ipdom[n] is the nearest
	// net every path from n to a primary output passes through, top (-1)
	// when only the virtual sink behind the outputs does (every primary
	// output is a top), and noPO (-2) when n reaches no output at all. A
	// non-output net feeding exactly one gate pin is post-dominated by that
	// gate; a stem by the net where its reconvergent fan-out closes. A
	// single stuck-at fault leaves a net only through its post-dominator,
	// which is what lets StuckAt factor its test set. Built once in New and
	// aliased by every Clone.
	ipdom []int

	// props caches, per net, the propagation of a lone inversion of the net
	// (see propagation): up to its post-dominator for a dominated stem, to
	// the primary outputs for a top. Entries are tagged with the table
	// epoch and go stale at the next compaction or recovery.
	props []netProp

	// coneBuf and deltaBuf are scratch for the worklist propagation: the
	// merged fan-out-cone bitset of the current fault's seed sites, and the
	// per-net difference functions (bdd.False = none). Both are cleaned
	// between analyses by walking the cone bits only, so per-fault cost
	// stays O(|cone|), not O(|circuit|).
	coneBuf  []uint64
	deltaBuf []bdd.Ref

	// notMemo caches complements of good functions for forced sites within
	// one analysis (cleared by begin). Complement edges make Not itself
	// free, but multi-fault seeds re-derive the same forced difference once
	// per consuming pin; the memo bounds that to once per site per fault.
	notMemo map[int]bdd.Ref

	// faultBudget bounds each analysis when active (see SetFaultBudget);
	// recovery configures the ladder run when a bound fires (SetRecovery).
	faultBudget FaultBudget
	recovery    Recovery

	// lastSiftSize is the live node count the most recent recovery sift
	// settled at (0 = never sifted). The good functions are fixed for the
	// engine's lifetime, so a sift that could not pull them under the
	// watermark will not do better on the next recovery; this gates the
	// sift rung to run once per engine.
	lastSiftSize int

	// log receives structured engine events (rebuilds, budget aborts);
	// nil is silent. Not shared with clones.
	log *slog.Logger

	// phaseClock, when set, timestamps the three phases of each analysis
	// (difference build, propagation, satisfying-set count) into
	// lastPhases. Off by default: it adds time.Now calls to the hot path.
	phaseClock bool
	phaseStart time.Time
	lastPhases PhaseTimes

	// lastAbortOps records the BDD operations the most recent aborted
	// analysis had charged when its budget fired (captured by Recover).
	lastAbortOps int64

	// chaosAt/chaosErr hold a pending one-shot chaos abort armed by
	// ArmChaosAbort for the NEXT analysis; begin transfers it to the
	// manager and clears it, so a recovery-ladder retry of the same fault
	// runs clean.
	chaosAt  int64
	chaosErr error

	// Runtime counters (see Stats). Cache statistics live on the manager:
	// the in-place GC merges retired tables' counters into it, so
	// m.CacheStats() is cumulative across compactions.
	gateEvals      int64
	analyses       int
	peakNodes      int
	nodesReclaimed int64
	sifts          int
	rootProps      int
	transfers      int

	// gatesVisited/gatesSkipped split each worklist walk: visited gates
	// entered the propagation loop (the seeds' merged cone); skipped gates
	// were proven unreachable from the seed sites and never touched.
	// lastConeGates is the gate count the most recent analysis walked (the
	// cone-size sample behind the obs histogram).
	gatesVisited  int64
	gatesSkipped  int64
	lastConeGates int
}

// PhaseTimes breaks one fault analysis into the engine's phases:
// difference-function construction, selective-trace propagation, and the
// satisfying-set count that yields the detectability.
type PhaseTimes struct {
	Build, Propagate, SatCount time.Duration
}

// SetLogger attaches a structured logger for engine events (generational
// rebuilds, budget aborts). A nil logger silences them (the default).
func (e *Engine) SetLogger(log *slog.Logger) { e.log = log }

// EnablePhaseTiming toggles per-analysis phase timestamps (see
// LastPhases). Off by default because it adds clock reads to every fault.
func (e *Engine) EnablePhaseTiming(on bool) { e.phaseClock = on }

// LastPhases returns the phase breakdown of the most recent analysis.
// Zero unless EnablePhaseTiming(true) was called; partially filled when
// the analysis aborted mid-phase.
func (e *Engine) LastPhases() PhaseTimes { return e.lastPhases }

// LastAbortOps reports how many BDD operations the most recently aborted
// analysis had charged when its budget fired (captured by Recover).
func (e *Engine) LastAbortOps() int64 { return e.lastAbortOps }

// AnalysisOps reports the BDD operations charged by the most recent
// analysis: every query re-arms the charge meter at its start, so after a
// completed query this is that query's own cost — the sample budget
// self-calibration learns from. After an aborted query (post-Recover) the
// meter is reset; use LastAbortOps for the aborted attempt's count.
func (e *Engine) AnalysisOps() int64 { return e.m.OpsCharged() }

// ArmChaosAbort schedules a one-shot forced abort for the next analysis
// on this engine: its manager will panic with err (bdd.ErrBudget or
// bdd.ErrNodeLimit; nil selects bdd.ErrBudget) once the analysis charges
// atOps operations. The trigger is consumed when the next analysis
// begins, so a recovery-ladder retry of the aborted fault runs clean —
// which is exactly what makes chaos-rescued records bit-identical to an
// uninjected run. atOps <= 0 clears a pending trigger. Chaos-injection
// seam; no-op in normal operation.
func (e *Engine) ArmChaosAbort(atOps int64, err error) {
	if atOps <= 0 {
		e.chaosAt, e.chaosErr = 0, nil
		return
	}
	e.chaosAt, e.chaosErr = atOps, err
}

// Stats is a snapshot of an engine's runtime counters: how much work the
// per-fault analyses actually did, how the BDD substrate behaved, and how
// often the generational GC ran. Aggregated across workers into
// analysis.CampaignStats.
type Stats struct {
	// Analyses counts fault queries answered (one per query).
	Analyses int
	// GateEvaluations totals the work on the queried faults' own paths.
	// For a stuck-at, bridging or gate-substitution fault it is the BDD
	// ANDs of its post-dominator chains: one per binary single-consumer
	// gate and one per transfer step (see StuckAt), summed over a bridge's
	// two wires; for a multiple stuck-at fault it is the gates direct
	// propagation evaluated. Transfer and root fills are not included, so
	// the count is a pure function of the fault set.
	GateEvaluations int64
	// GatesVisited totals the gates the worklist propagation examined and
	// GatesSkipped the gates it never touched: only the seed sites' merged
	// fan-out cone is visited, so Visited+Skipped = worklist walks x gate
	// count (one walk per transfer, root propagation or direct-DP query)
	// and Skipped measures the walk work the cone index saved over a scan
	// of every gate.
	GatesVisited int64
	GatesSkipped int64
	// RootPropagations counts the full propagations to the primary outputs
	// from top nets (post-dominated only by the virtual sink) computed for
	// factored queries; every other chain that reaches the same top reused
	// the cached one.
	RootPropagations int
	// Transfers counts the post-dominator transfer fills: propagations of
	// a stem's lone inversion up to its immediate post-dominator, cached
	// like root propagations.
	Transfers int
	// Rebuilds counts generational GC passes of the BDD manager.
	Rebuilds int
	// NodesReclaimed totals the dead nodes those GC passes dropped.
	NodesReclaimed int64
	// Sifts counts recovery-ladder variable-reordering runs.
	Sifts int
	// PeakNodes is the largest node count the manager reached.
	PeakNodes int
	// Cache aggregates apply/ite/not cache hits and misses, including
	// managers retired by compaction.
	Cache bdd.CacheStats
}

// Merge folds another engine's counters into s: additive counters sum,
// PeakNodes takes the maximum (it is a high-water mark, not a total), and
// the cache stats accumulate. This is THE aggregation rule for combining
// per-engine stats — campaign-level aggregation must use it so parallel
// totals equal the sum of their parts.
func (s *Stats) Merge(other Stats) {
	s.Analyses += other.Analyses
	s.GateEvaluations += other.GateEvaluations
	s.GatesVisited += other.GatesVisited
	s.GatesSkipped += other.GatesSkipped
	s.RootPropagations += other.RootPropagations
	s.Transfers += other.Transfers
	s.Rebuilds += other.Rebuilds
	s.NodesReclaimed += other.NodesReclaimed
	s.Sifts += other.Sifts
	if other.PeakNodes > s.PeakNodes {
		s.PeakNodes = other.PeakNodes
	}
	s.Cache.Add(other.Cache)
}

// Stats returns the engine's runtime counters accumulated so far.
func (e *Engine) Stats() Stats {
	peak := e.peakNodes
	if nc := e.m.NodeCount(); nc > peak {
		peak = nc
	}
	return Stats{
		Analyses:         e.analyses,
		GateEvaluations:  e.gateEvals,
		GatesVisited:     e.gatesVisited,
		GatesSkipped:     e.gatesSkipped,
		RootPropagations: e.rootProps,
		Transfers:        e.transfers,
		Rebuilds:         e.rebuilds,
		NodesReclaimed:   e.nodesReclaimed,
		Sifts:            e.sifts,
		PeakNodes:        peak,
		Cache:            e.m.CacheStats(),
	}
}

// CacheTraffic sums the engine's op-cache hits and misses across the
// apply, ite and not caches — the live feed behind the timeline
// sampler's hit-ratio curve. Cheaper than Stats() when only the cache
// counters are wanted: it skips the node-count walk.
func (e *Engine) CacheTraffic() (hits, misses int64) {
	cs := e.m.CacheStats()
	return cs.ApplyHits + cs.IteHits + cs.NotHits,
		cs.ApplyMisses + cs.IteMisses + cs.NotMisses
}

// LastConeGates returns the number of gates the most recent analysis's
// propagation loop visited: the fault's merged fan-out-cone size. This is
// the per-fault sample behind the campaign cone-size histogram.
func (e *Engine) LastConeGates() int { return e.lastConeGates }

// GateWalk returns the engine's cumulative propagation-walk footprint:
// gates the loops examined and gates cone restriction never touched.
// Cheaper than Stats for per-fault delta accounting.
func (e *Engine) GateWalk() (visited, skipped int64) {
	return e.gatesVisited, e.gatesSkipped
}

// New builds an engine for the circuit. The circuit is decomposed to
// two-input gates internally (original net names are preserved, so
// NetByName lookups carry over); use Engine.Circuit for fault generation.
func New(c *netlist.Circuit, opts *Options) (*Engine, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("diffprop: %v", err)
	}
	work := c.Decompose2()
	var order []string
	if opts != nil && len(opts.Order) > 0 {
		order = opts.Order
		if len(order) != len(work.Inputs) {
			return nil, fmt.Errorf("diffprop: order has %d names for %d inputs", len(order), len(work.Inputs))
		}
	} else {
		order = DFSOrder(work)
	}
	cutThreshold := 0
	maxCuts := 0
	if opts != nil && opts.CutThreshold > 0 {
		cutThreshold = opts.CutThreshold
		maxCuts = opts.MaxCuts
		if maxCuts <= 0 {
			maxCuts = 64
		}
		// Cut variables sit after the primary inputs in the order.
		for i := 0; i < maxCuts; i++ {
			order = append(order, fmt.Sprintf("$cut%d", i))
		}
	}
	m := bdd.New(order...)
	limit := DefaultRebuildLimit
	if opts != nil && opts.RebuildLimit > 0 {
		limit = opts.RebuildLimit
	}
	m.SetMaxCache(limit / 2)
	e := &Engine{
		Circuit:      work,
		m:            m,
		rebuildLimit: limit,
		syndromes:    make([]float64, work.NumNets()),
		synValid:     make([]bool, work.NumNets()),
	}
	e.good = make([]bdd.Ref, work.NumNets())
	for id, g := range work.Gates {
		switch g.Type {
		case netlist.Input:
			v := m.VarIndex(g.Name)
			if v < 0 {
				return nil, fmt.Errorf("diffprop: order is missing input %q", g.Name)
			}
			e.good[id] = m.Var(v)
		case netlist.Not:
			e.good[id] = m.Not(e.good[g.Fanin[0]])
		case netlist.Buff:
			e.good[id] = e.good[g.Fanin[0]]
		default:
			a, b := e.good[g.Fanin[0]], e.good[g.Fanin[1]]
			switch g.Type {
			case netlist.And:
				e.good[id] = m.And(a, b)
			case netlist.Nand:
				e.good[id] = m.Nand(a, b)
			case netlist.Or:
				e.good[id] = m.Or(a, b)
			case netlist.Nor:
				e.good[id] = m.Nor(a, b)
			case netlist.Xor:
				e.good[id] = m.Xor(a, b)
			case netlist.Xnor:
				e.good[id] = m.Xnor(a, b)
			default:
				return nil, fmt.Errorf("diffprop: unsupported gate type %v", g.Type)
			}
		}
		// Functional decomposition: an oversized good function is replaced
		// downstream by a fresh cut variable.
		if cutThreshold > 0 && len(e.cutNets) < maxCuts &&
			!bdd.IsConst(e.good[id]) && m.Size(e.good[id]) > cutThreshold {
			e.good[id] = m.VarNamed(fmt.Sprintf("$cut%d", len(e.cutNets)))
			e.cutNets = append(e.cutNets, id)
		}
	}
	e.varToInput = buildVarToInput(work, m)
	// The reachability table serves double duty as the cone index of the
	// worklist propagation, so it is built eagerly: one reverse-topological
	// sweep here, aliased by every Clone thereafter.
	e.reach = faults.NewReachability(work)
	e.ipdom = buildIPDom(work)
	e.peakNodes = m.NodeCount()
	return e, nil
}

// Post-dominator table marks (see Engine.ipdom).
const (
	top  = -1
	noPO = -2
)

// buildIPDom computes the immediate post-dominator table (see
// Engine.ipdom) in one reverse-topological sweep. Net ids are topological,
// so every net's post-dominators have larger ids and are final when the
// net is reached. Its ipdom is the nearest common post-dominator of its
// consumers that reach an output, found by walking two candidates up the
// table, the smaller id first, until they meet or one is the top (Cooper,
// Harvey and Kennedy's intersection).
func buildIPDom(c *netlist.Circuit) []int {
	ipdom := make([]int, c.NumNets())
	for _, o := range c.Outputs {
		ipdom[o] = top
	}
	fo := c.Fanout()
	for v := len(ipdom) - 1; v >= 0; v-- {
		if ipdom[v] == top {
			continue // a primary output
		}
		d := noPO
		for _, g := range fo[v] {
			if ipdom[g] == noPO {
				continue
			}
			if d == noPO {
				d = g
			}
			for d != g && d != top {
				if g == top || d < g {
					d = ipdom[d]
				} else {
					g = ipdom[g]
				}
			}
		}
		ipdom[v] = d
	}
	return ipdom
}

// PostDominator returns the immediate post-dominator of a net of the
// working circuit: the nearest net every path from it to a primary output
// passes through, -1 when only the outputs' virtual sink does, and -2 when
// the net reaches no output. Nets whose chain of post-dominators ends at
// -1 share that top's full propagation.
func (e *Engine) PostDominator(net int) int { return e.ipdom[net] }

// buildVarToInput computes the BDD-variable-position → primary-input-index
// mapping (-1 for cut variables).
func buildVarToInput(c *netlist.Circuit, m *bdd.Manager) []int {
	names := c.InputNames()
	pos := make(map[string]int, len(names))
	for i, n := range names {
		pos[n] = i
	}
	out := make([]int, m.NumVars())
	for v := range out {
		if i, ok := pos[m.VarName(v)]; ok {
			out[v] = i
		} else {
			out[v] = -1
		}
	}
	return out
}

// Clone builds an independent engine over the same circuit by structurally
// copying the good functions into a fresh manager (bdd.Manager.Transfer,
// linear in the node count) instead of re-running Apply-synthesis. The
// clone shares the immutable working circuit, the precomputed input
// mapping and the feedback-reachability table with its source, and starts
// with the source's syndrome cache and a compact, garbage-free manager.
// Cloning reads but never mutates the source, so several clones may be
// taken concurrently — but not while another goroutine is analyzing faults
// on the source. The clone keeps the source's rebuild limit. Runtime
// counters start at zero and the propagation cache starts empty.
func (e *Engine) Clone() *Engine {
	m2 := bdd.New(e.m.Names()...)
	m2.SetMaxCache(e.rebuildLimit / 2)
	good2 := e.m.Transfer(m2, e.good...)
	return &Engine{
		Circuit:      e.Circuit,
		m:            m2,
		good:         good2,
		rebuildLimit: e.rebuildLimit,
		cutNets:      append([]int(nil), e.cutNets...),
		syndromes:    append([]float64(nil), e.syndromes...),
		synValid:     append([]bool(nil), e.synValid...),
		varToInput:   e.varToInput,
		reach:        e.reach,
		ipdom:        e.ipdom,
		faultBudget:  e.faultBudget,
		recovery:     e.recovery,
		lastSiftSize: e.lastSiftSize,
		peakNodes:    m2.NodeCount(),
	}
}

// RebuildLimit reports the node count at which the engine compacts its
// manager.
func (e *Engine) RebuildLimit() int { return e.rebuildLimit }

// CutNets returns the nets replaced by cut variables under functional
// decomposition; an empty slice means the analysis is exact.
func (e *Engine) CutNets() []int { return append([]int(nil), e.cutNets...) }

// Manager exposes the engine's BDD manager (for witness extraction,
// counting, etc.). References into it are invalidated by the next
// Engine analysis call.
func (e *Engine) Manager() *bdd.Manager { return e.m }

// Good returns the good function of a net in the working circuit.
func (e *Engine) Good(net int) bdd.Ref { return e.good[net] }

// NumVars returns the number of primary inputs / BDD variables.
func (e *Engine) NumVars() int { return e.m.NumVars() }

// Rebuilds reports how many generational GC passes have run.
func (e *Engine) Rebuilds() int { return e.rebuilds }

// VarToInput returns, for each BDD variable position, the index of the
// corresponding primary input in circuit declaration order, or -1 for a
// cut variable introduced by functional decomposition. Needed to
// translate AnySat cubes (variable order) into test vectors (input order).
// The mapping is invariant for the engine's lifetime and computed once in
// New; the returned slice is the engine's cached copy and must not be
// modified.
func (e *Engine) VarToInput() []int { return e.varToInput }

// Assignment converts a test vector in primary-input declaration order
// into a BDD evaluation assignment in variable order. Cut variables (if
// any) evaluate as false; exact evaluation is only meaningful without
// functional decomposition.
func (e *Engine) Assignment(vec []bool) []bool {
	out := make([]bool, len(e.varToInput))
	for v, i := range e.varToInput {
		if i >= 0 {
			out[v] = vec[i]
		}
	}
	return out
}

// Syndrome returns the exact syndrome of a net: the fraction of input
// assignments driving it to one (Savir). Values are cached per net.
func (e *Engine) Syndrome(net int) float64 {
	if !e.synValid[net] {
		e.syndromes[net] = e.m.SatFrac(e.good[net])
		e.synValid[net] = true
	}
	return e.syndromes[net]
}

// SetFaultBudget arms a per-analysis resource budget: every subsequent
// fault query charges BDD operations against budget.Ops and the clock
// against budget.Wall, and panics with bdd.ErrBudget when either is
// exhausted. The zero budget disarms. After recovering from bdd.ErrBudget
// the caller must invoke Recover before the next query.
func (e *Engine) SetFaultBudget(budget FaultBudget) { e.faultBudget = budget }

// FaultBudget returns the currently armed per-analysis budget.
func (e *Engine) FaultBudget() FaultBudget { return e.faultBudget }

// SetRecovery configures the graceful-recovery ladder (see Recovery). The
// zero value restores the historical GC-only behavior.
func (e *Engine) SetRecovery(r Recovery) { e.recovery = r }

// Recovery returns the configured recovery ladder.
func (e *Engine) Recovery() Recovery { return e.recovery }

// RelaxBudget arms the ladder's retry rung: the per-fault budget (ops and
// wall) and the node watermark are scaled by Recovery.RetryMultiplier so
// the caller can re-attempt a blown fault once with more headroom. It
// returns a restore function that reinstates the original bounds, and
// ok=false — arming nothing — when the retry rung is disabled
// (RetryMultiplier <= 1) or there is no bound to relax.
func (e *Engine) RelaxBudget() (restore func(), ok bool) {
	mult := e.recovery.RetryMultiplier
	if mult <= 1 || (!e.faultBudget.active() && e.recovery.NodeLimit <= 0) {
		return nil, false
	}
	savedBudget, savedRecovery := e.faultBudget, e.recovery
	e.faultBudget.Ops = scaleBound(savedBudget.Ops, mult)
	e.faultBudget.Wall = time.Duration(scaleBound(int64(savedBudget.Wall), mult))
	e.recovery.NodeLimit = int(scaleBound(int64(savedRecovery.NodeLimit), mult))
	return func() {
		e.faultBudget, e.recovery = savedBudget, savedRecovery
	}, true
}

// scaleBound multiplies a resource bound, keeping zero (= unlimited) at
// zero and saturating instead of overflowing.
func scaleBound(v int64, mult float64) int64 {
	if v <= 0 {
		return v
	}
	f := float64(v) * mult
	if f >= float64(1<<62) {
		return 1 << 62
	}
	return int64(f)
}

// begin opens a fault analysis: compacts the manager if it outgrew the
// limit, then arms the per-analysis budget and node watermark (if any) so
// the whole query — seed construction, propagation, counting — is metered
// as one unit.
func (e *Engine) begin() {
	e.maybeCompact()
	if e.phaseClock {
		e.phaseStart = time.Now()
		e.lastPhases = PhaseTimes{}
	}
	// The complement memo caches refs, which die at the next compaction or
	// recovery; its lifetime is exactly one analysis.
	clear(e.notMemo)
	lim := e.recovery.NodeLimit
	if lim > 0 {
		// Headroom guarantee: the live good functions plus half again can
		// never trip the watermark, however small it was configured.
		if floor := e.m.NodeCount() + e.m.NodeCount()/2; lim < floor {
			lim = floor
		}
	}
	e.m.SetNodeLimit(lim)
	var deadline time.Time
	if e.faultBudget.Wall > 0 {
		deadline = time.Now().Add(e.faultBudget.Wall)
	}
	// Always arm, even with a zero (unlimited) budget: SetBudget resets
	// the manager's charge meter, making AnalysisOps a per-analysis count
	// — the sample the campaign layer's budget self-calibration learns
	// from.
	e.m.SetBudget(e.faultBudget.Ops, deadline)
	if e.chaosAt > 0 {
		e.m.SetChaosAbort(e.chaosAt, e.chaosErr)
		e.chaosAt, e.chaosErr = 0, nil
	}
}

// Recover restores the engine after an aborted analysis (a bdd.ErrBudget
// or bdd.ErrNodeLimit panic, or any panic that escaped a fault query) by
// running the recovery ladder's engine-side rungs: the manager is
// garbage-collected in place around the good functions, dropping every
// node the aborted query left behind, and — when a node watermark is
// configured, the live set still exceeds it, and the sift rung is enabled
// — a capped number of variable-reordering passes tries to shrink the
// good functions themselves. The budget and watermark are disarmed until
// the next query re-arms them. The abort fires only between node-table
// mutations and the node store is append-only, so recovery always starts
// from a consistent table.
func (e *Engine) Recover() {
	// OpsCharged must be read before ClearBudget resets the meter.
	e.lastAbortOps = e.m.OpsCharged()
	e.m.ClearBudget()
	e.m.SetNodeLimit(0)
	// Drop any chaos trigger still pending on the engine: if the aborted
	// analysis never reached begin (an injected panic between arming and
	// the first query), the trigger must not leak into the next fault.
	e.chaosAt, e.chaosErr = 0, nil
	before := e.m.NodeCount()
	if before > e.peakNodes {
		e.peakNodes = before
	}
	passes := e.recovery.SiftPasses
	if e.lastSiftSize > 0 {
		// The good functions cannot change, so one sift per good set is all
		// that can ever help (clones inherit the order).
		passes = 0
	}
	roots, res := e.m.ReduceUnder(e.good, e.recovery.NodeLimit, passes)
	copy(e.good, roots)
	e.rebuilds++
	e.nodesReclaimed += int64(res.Reclaimed())
	if res.Sifted {
		e.sifts++
		e.lastSiftSize = res.After
		// Reordering moved the variables: the position→input map must be
		// recomputed. Syndromes are per-net fractions and stay valid.
		e.varToInput = buildVarToInput(e.Circuit, e.m)
	}
	if e.log != nil {
		e.log.Debug("engine recover", "ops_charged", e.lastAbortOps,
			"nodes_before", before, "nodes_after", e.m.NodeCount(),
			"reclaimed", res.Reclaimed(), "sifted", res.Sifted, "rebuilds", e.rebuilds)
	}
}

// maybeCompact garbage-collects the manager around the good functions when
// the node table has grown past the limit, dropping all per-fault garbage.
func (e *Engine) maybeCompact() {
	if e.m.NodeCount() <= e.rebuildLimit {
		return
	}
	e.compact("limit")
}

// compact garbage-collects the manager in place around the good functions.
// The manager keeps its identity, so cumulative cache statistics and the
// node high-water mark survive without engine-side accumulators. Used by
// maybeCompact (node-table growth) and GCNow (the campaign memory
// governor).
func (e *Engine) compact(cause string) {
	before := e.m.NodeCount()
	if before > e.peakNodes {
		e.peakNodes = before
	}
	roots, res := e.m.GC(e.good)
	copy(e.good, roots)
	e.rebuilds++
	e.nodesReclaimed += int64(res.Reclaimed())
	if e.log != nil {
		e.log.Debug("bdd rebuild", "cause", cause, "nodes_before", before,
			"nodes_after", e.m.NodeCount(), "rebuilds", e.rebuilds)
	}
}

// GCNow immediately garbage-collects the manager around the good
// functions, dropping per-fault garbage between analyses. The campaign
// memory governor calls it when parking a worker under heap pressure; any
// caller may use it to return an idle engine to its minimal footprint.
// Results of previous queries are invalidated.
func (e *Engine) GCNow() { e.compact("governor") }

// Result is the outcome of one fault analysis: the complete test set and
// the figures derived from it. The BDD references are valid until the
// table is next compacted (at the latest, the next Engine call);
// WitnessVector and MinimalTestCube panic on a result that outlived it.
type Result struct {
	// PerPO holds the difference function observed at each primary output
	// (index-aligned with Circuit.Outputs).
	PerPO []bdd.Ref
	// Complete is the complete test set: the union of the PO differences.
	Complete bdd.Ref
	// Detectability is the exact detection probability
	// |Complete| / 2^n — the paper's central quantity.
	Detectability float64
	// ObservedPOs lists the output positions with a non-zero difference.
	ObservedPOs []int
	// GatesEvaluated counts the gates whose difference function was
	// actually computed for this fault; the rest were skipped by selective
	// trace (§3). For a stuck-at or gate-substitution fault these are the
	// binary gates and transfer steps on its post-dominator chain (see
	// StuckAt), for a bridging fault the sum over both wires' chains.
	GatesEvaluated int

	// epoch is the table epoch the refs were built under.
	epoch uint64
}

// Detectable reports whether the fault has any test at all; a false value
// proves redundancy (for stuck-at faults) or untestability.
func (r Result) Detectable() bool { return r.Complete != bdd.False }

// pinKey identifies a gate input pin.
type pinKey struct {
	gate, pin int
}

// seeds carries everything a propagation can start from: explicit initial
// difference functions at nets (the lone inversions behind transfers and
// root observabilities) and forced constants (multiple stuck-at faults,
// where a downstream forced site must override whatever difference
// arrives from upstream faults).
type seeds struct {
	net      map[int]bdd.Ref
	forceNet map[int]bool
	forcePin map[pinKey]bool
}

// pinDelta resolves the difference arriving at one gate input pin:
// forced-pin constants override whatever difference the fan-in net
// carries (bdd.False for none).
func (e *Engine) pinDelta(sd seeds, delta []bdd.Ref, id, pin, fanin int) bdd.Ref {
	if sd.forcePin != nil {
		if v, ok := sd.forcePin[pinKey{id, pin}]; ok {
			return e.forcedDelta(fanin, v)
		}
	}
	return delta[fanin]
}

// propagateSeeds answers one fault query by direct difference propagation:
// the seeds are walked to the primary outputs (walkSeeds) and the complete
// test set is counted. Only multiple stuck-at faults run here, because a
// downstream forced site can mask an upstream one; every single-difference
// fault model takes the factored post-dominator chain, for which direct
// propagation of its own seeds is the test oracle.
func (e *Engine) propagateSeeds(sd seeds) Result {
	e.endPhase(&e.lastPhases.Build)
	res, visited := e.walkSeeds(sd, top)
	return e.finish(res, visited)
}

// walkSeeds is the cone-restricted worklist propagation: it ORs the
// packed reachability rows of every seed site into a merged-cone bitset
// and walks only those nets, in ascending id (= topological) order, so
// per-walk cost is O(|cone|) rather than O(|circuit|). It matches a scan
// over every gate exactly: a gate outside the merged cone can receive only
// zero input differences (differences originate at seed sites and flow
// along fan-out edges, and cones are transitively closed), so a full scan
// does no BDD work there. Within the cone gates are walked in ascending
// net id — the topological order Validate guarantees — so the BDD
// operations are the ones a full scan issues, in the same order. The full
// scan survives as the test-only reference in worklist_test.go.
//
// A stop net (stop >= 0) ends the walk there: its fan-out cone is dropped
// from the merged cone, and the result's Complete is the difference that
// reached stop, with no per-PO differences. Otherwise (stop = top) the
// result carries the per-PO differences and their union. Either way it
// carries the selective-trace gate count; visited is the number of gates
// walked, which is also booked into the engine's walk footprint.
func (e *Engine) walkSeeds(sd seeds, stop int) (res Result, visited int) {
	m := e.m
	c := e.Circuit
	n := c.NumNets()
	words := (n + 63) / 64
	if len(e.coneBuf) < words {
		e.coneBuf = make([]uint64, words)
	}
	if len(e.deltaBuf) < n {
		e.deltaBuf = make([]bdd.Ref, n)
	}
	cone, delta := e.coneBuf, e.deltaBuf
	// Every delta write below lands on a net whose cone bit is already
	// set, so walking the set bits scrubs both buffers back to zero — even
	// when a budget abort panics out mid-propagation (the abort would
	// otherwise leave stale refs for the next fault to misread).
	defer func() {
		for w, wbits := range cone {
			for wbits != 0 {
				delta[w*64+bits.TrailingZeros64(wbits)] = bdd.False
				wbits &= wbits - 1
			}
			cone[w] = 0
		}
	}()
	// mark adds a seed site to the worklist: the site itself (a seeded
	// site inside another seed's cone must still be recomputed, and a
	// site's own difference is read when it is a primary output) plus its
	// whole fan-out cone.
	mark := func(net int) {
		cone[net>>6] |= 1 << uint(net&63)
		for w, row := range e.reach.Row(net) {
			cone[w] |= row
		}
	}
	for net, d := range sd.net {
		mark(net)
		if d != bdd.False {
			delta[net] = d
		}
	}
	// A forced primary input differs wherever its good value disagrees
	// with the forced constant; forced gate outputs are handled at their
	// gate, inside the walk.
	for net, v := range sd.forceNet {
		mark(net)
		if c.Gates[net].Type == netlist.Input {
			if d := e.forcedDelta(net, v); d != bdd.False {
				delta[net] = d
			}
		}
	}
	for k := range sd.forcePin {
		mark(k.gate)
	}
	if stop >= 0 {
		for w, row := range e.reach.Row(stop) {
			cone[w] &^= row
		}
	}
	evaluated := 0
	for w, wbits := range cone {
		for wbits != 0 {
			id := w*64 + bits.TrailingZeros64(wbits)
			wbits &= wbits - 1
			g := &c.Gates[id]
			if g.Type == netlist.Input {
				continue
			}
			visited++
			// A forced gate output overrides any arriving difference: the
			// faulty value is the constant no matter what happens upstream.
			if sd.forceNet != nil {
				if v, ok := sd.forceNet[id]; ok {
					delta[id] = e.forcedDelta(id, v)
					continue
				}
			}
			var out bdd.Ref
			switch g.Type {
			case netlist.Not, netlist.Buff:
				out = e.pinDelta(sd, delta, id, 0, g.Fanin[0])
				if out == bdd.False {
					continue
				}
			case netlist.Xor, netlist.Xnor:
				da := e.pinDelta(sd, delta, id, 0, g.Fanin[0])
				db := e.pinDelta(sd, delta, id, 1, g.Fanin[1])
				if da == bdd.False && db == bdd.False {
					continue // selective trace: no difference reaches this gate
				}
				evaluated++
				out = m.Xor(da, db)
			case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
				da := e.pinDelta(sd, delta, id, 0, g.Fanin[0])
				db := e.pinDelta(sd, delta, id, 1, g.Fanin[1])
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
	}
	e.gatesVisited += int64(visited)
	e.gatesSkipped += int64(c.NumGates() - visited)
	if stop >= 0 {
		return Result{Complete: delta[stop], GatesEvaluated: evaluated}, visited
	}
	res = Result{PerPO: make([]bdd.Ref, len(c.Outputs)), Complete: bdd.False, GatesEvaluated: evaluated}
	for i, o := range c.Outputs {
		// An unvisited, unseeded net holds the zero Ref, which is
		// bdd.False: a difference that never reached this output.
		d := delta[o]
		res.PerPO[i] = d
		if d != bdd.False {
			res.Complete = m.Or(res.Complete, d)
		}
	}
	return res, visited
}

// endPhase closes the running analysis phase into d and starts the next
// one (no-op unless phase timing is on).
func (e *Engine) endPhase(d *time.Duration) {
	if e.phaseClock {
		now := time.Now()
		*d = now.Sub(e.phaseStart)
		e.phaseStart = now
	}
}

// finish closes a fault query: it lists the observed outputs, counts the
// complete test set, books the query's counters and stamps the result with
// the table epoch its refs belong to. walked is the number of gates the
// query walked (the cone-size sample behind LastConeGates).
func (e *Engine) finish(res Result, walked int) Result {
	for i, d := range res.PerPO {
		if d != bdd.False {
			res.ObservedPOs = append(res.ObservedPOs, i)
		}
	}
	e.endPhase(&e.lastPhases.Propagate)
	res.Detectability = e.m.SatFrac(res.Complete)
	e.endPhase(&e.lastPhases.SatCount)
	e.analyses++
	e.gateEvals += int64(res.GatesEvaluated)
	e.lastConeGates = walked
	if nc := e.m.NodeCount(); nc > e.peakNodes {
		e.peakNodes = nc
	}
	res.epoch = e.m.TableEpoch()
	return res
}

// netProp is one cached propagation of a net inverted alone: for a top,
// the difference each primary output sees (perPO) and their union (diff);
// for a dominated stem, the difference at its post-dominator (diff, with
// perPO nil).
type netProp struct {
	epoch  uint64
	filled bool
	perPO  []bdd.Ref
	diff   bdd.Ref
}

// propagation returns the cached propagation of a constant-true difference
// seeded at net, walking the worklist on a miss: up to the net's immediate
// post-dominator (the transfer T(net)) when it has one, to the primary
// outputs when the net is a top. Entries are tagged with the table epoch:
// any compaction, recovery or sift renumbers the nodes and so invalidates
// them. A fill runs inside the querying fault's budget meter, and one that
// aborts leaves no entry. Cached refs are not GC roots; they stay valid
// exactly as long as the epoch does, because nothing is freed between
// compactions.
func (e *Engine) propagation(net int) (ent *netProp, walked int) {
	if e.props == nil {
		e.props = make([]netProp, e.Circuit.NumNets())
	}
	ent = &e.props[net]
	epoch := e.m.TableEpoch()
	if ent.filled && ent.epoch == epoch {
		return ent, 0
	}
	stop := e.ipdom[net]
	res, walked := e.walkSeeds(seeds{net: map[int]bdd.Ref{net: bdd.True}}, stop)
	if stop == top {
		e.rootProps++
	} else {
		e.transfers++
	}
	*ent = netProp{epoch: epoch, filled: true, perPO: res.PerPO, diff: res.Complete}
	return ent, walked
}

// factored answers a single-difference query by post-dominator factoring:
// one climb (see climb) from the difference d, entering at a net (gate < 0)
// or at one input pin of gate, then the top step (see observe).
func (e *Engine) factored(d bdd.Ref, net, gate, pin int) Result {
	d, net, evaluated, walked := e.climb(d, net, gate, pin)
	e.endPhase(&e.lastPhases.Build)
	res := Result{PerPO: make([]bdd.Ref, len(e.Circuit.Outputs)), GatesEvaluated: evaluated}
	walked += e.observe(&res, d, net)
	return e.finish(res, walked)
}

// climb carries the difference d, entering at a net (gate < 0) or at one
// input pin of gate, up the net's chain of immediate post-dominators to a
// top. Through a single-consumer net's gate it takes the one-input Table 1
// step (AND/NAND: d ∧ f_other, OR/NOR: d ∧ ¬f_other, XOR/XNOR/NOT/BUFF:
// d); from a stem to its post-dominator it is ANDed with the cached
// transfer T(stem). It returns the difference that reached the end of the
// chain (bdd.False once it dies), the net the chain ended at, the chain
// steps evaluated and the gates walked, fills included. This equals direct
// propagation exactly: seeding d at a net yields d ∧ D_x at every
// downstream net x, where D_x is what seeding True yields, because d∧
// distributes over ⊕ and d∧d = d in each Table 1 identity; and every path
// from the net to an output passes its post-dominator, so nothing outside
// the chain can carry the fault to an output.
func (e *Engine) climb(d bdd.Ref, net, gate, pin int) (bdd.Ref, int, int, int) {
	m := e.m
	c := e.Circuit
	evaluated, walked := 0, 0
	if gate < 0 {
		gate, pin = e.consumer(net)
	}
	for d != bdd.False && (gate >= 0 || e.ipdom[net] >= 0) {
		if gate < 0 {
			// A stem: one step to its post-dominator through the transfer.
			t, fill := e.propagation(net)
			walked += fill
			evaluated++
			d = m.And(d, t.diff)
			net = e.ipdom[net]
		} else {
			g := &c.Gates[gate]
			walked++
			switch g.Type {
			case netlist.And, netlist.Nand:
				evaluated++
				d = m.And(e.good[g.Fanin[1-pin]], d)
			case netlist.Or, netlist.Nor:
				evaluated++
				d = m.And(m.Not(e.good[g.Fanin[1-pin]]), d)
			case netlist.Xor, netlist.Xnor:
				evaluated++
			case netlist.Not, netlist.Buff:
			default:
				panic(fmt.Sprintf("diffprop: unexpected gate type %v", g.Type))
			}
			net = gate
		}
		gate, pin = e.consumer(net)
	}
	return d, net, evaluated, walked
}

// observe is the top step of a climb that ended at net with difference d:
// when net is a top it ORs d ∧ Obs_o(net), the top's cached observability
// at each output o, into res.PerPO[o], and d ∧ Obs(net) into res.Complete.
// A chain whose difference died, or that reaches no output, adds nothing.
// It returns the gates a root fill walked.
func (e *Engine) observe(res *Result, d bdd.Ref, net int) (walked int) {
	if d == bdd.False || e.ipdom[net] != top {
		return 0
	}
	m := e.m
	root, walked := e.propagation(net)
	res.Complete = e.or(res.Complete, m.And(d, root.diff))
	for i, o := range root.perPO {
		if o != bdd.False {
			res.PerPO[i] = e.or(res.PerPO[i], m.And(d, o))
		}
	}
	return walked
}

// or returns a ∨ b, short of the manager (and its op charge) while a is
// still bdd.False, so a single chain's top step issues only its ANDs.
func (e *Engine) or(a, b bdd.Ref) bdd.Ref {
	if a == bdd.False {
		return b
	}
	return e.m.Or(a, b)
}

// consumer returns the sole consumer gate of a non-output net that feeds
// exactly one gate pin, and the pin that reads it; gate -1 when the net is
// a stem, a primary output or reaches no output. Such a net's consumer is
// its immediate post-dominator.
func (e *Engine) consumer(net int) (gate, pin int) {
	gate = e.ipdom[net]
	if gate < 0 || e.Circuit.FanoutCount(net) != 1 {
		return -1, -1
	}
	if e.Circuit.Gates[gate].Fanin[0] == net {
		return gate, 0
	}
	return gate, 1
}

// StuckAt computes the complete test set for a single stuck-at fault
// (net or fan-out-branch site) in the working circuit. The fault's
// excitation (f for stuck-at-0, ¬f for stuck-at-1) is carried up its
// post-dominator chain to a top and ANDed with the top's cached per-output
// observability (see factored): one transfer per stem and one full
// propagation per top serve every fault whose chain passes them, in both
// polarities. The result is identical to direct
// difference propagation of the fault, which the tests check.
func (e *Engine) StuckAt(f faults.StuckAt) Result {
	e.begin()
	if f.IsBranch() {
		return e.factored(e.excitation(f), f.Net, f.Gate, f.Pin)
	}
	return e.factored(e.excitation(f), f.Net, -1, -1)
}

// excitation is a stuck-at fault's difference at its site: stuck-at-0
// differs wherever the line is 1, stuck-at-1 wherever it is 0.
func (e *Engine) excitation(f faults.StuckAt) bdd.Ref {
	if f.Stuck {
		return e.m.Not(e.good[f.Net])
	}
	return e.good[f.Net]
}

// forcedDelta returns the difference of a line forced to the constant v:
// where the good value disagrees with v. Complements are memoized per
// analysis (begin clears the memo): with complement edges Not itself is a
// free ref flip, but a multi-fault seed re-derives the same forced
// difference once per consuming pin, and the memo keeps that to one
// derivation per site however many pins read it.
func (e *Engine) forcedDelta(net int, v bool) bdd.Ref {
	if !v {
		return e.good[net]
	}
	if d, ok := e.notMemo[net]; ok {
		return d
	}
	d := e.m.Not(e.good[net])
	if e.notMemo == nil {
		e.notMemo = make(map[int]bdd.Ref, 8)
	}
	e.notMemo[net] = d
	return d
}

// MultipleStuckAt computes the complete test set of a multiple stuck-at
// fault: all component faults present simultaneously. The Table 1
// identities are valid for arbitrary input differences, so the same
// propagation applies; the only addition is that a forced site overrides
// any difference arriving from upstream component faults (its faulty
// value is the constant regardless). This is the machinery behind the
// paper's remark that any fault restricted to the logical domain can be
// addressed, and it powers the X5 double-fault experiment in the style of
// Hughes & McCluskey (the paper's ref [2]).
func (e *Engine) MultipleStuckAt(fs []faults.StuckAt) Result {
	return e.propagateSeeds(e.multipleStuckAtSeeds(fs))
}

// multipleStuckAtSeeds opens the analysis and forces every component
// fault's site.
func (e *Engine) multipleStuckAtSeeds(fs []faults.StuckAt) seeds {
	e.begin()
	sd := seeds{forceNet: map[int]bool{}, forcePin: map[pinKey]bool{}}
	for _, f := range fs {
		if f.IsBranch() {
			sd.forcePin[pinKey{f.Gate, f.Pin}] = f.Stuck
		} else {
			sd.forceNet[f.Net] = f.Stuck
		}
	}
	return sd
}

// GateSubstitution computes the complete test set of a gate replacement
// fault: the gate driving the net computes wrongType instead of its own
// function, over the same fan-ins. The fault changes one net, the gate's
// output, by f_gate ⊕ wrongType(f_fanins), so that difference takes the
// same post-dominator chain as a stuck-at fault's excitation (see
// factored) — the paper's conclusion that Difference Propagation addresses
// "more logical fault models than just the single stuck-at fault".
func (e *Engine) GateSubstitution(gate int, wrongType netlist.GateType) Result {
	return e.factored(e.gateSubstitutionDelta(gate, wrongType), gate, -1, -1)
}

// gateSubstitutionDelta opens the analysis and builds the substituted
// gate's difference at its output.
func (e *Engine) gateSubstitutionDelta(gate int, wrongType netlist.GateType) bdd.Ref {
	e.begin()
	g := e.Circuit.Gates[gate]
	if g.Type == netlist.Input {
		panic("diffprop: cannot substitute a primary input")
	}
	unary := wrongType == netlist.Not || wrongType == netlist.Buff
	if unary != (len(g.Fanin) == 1) {
		panic(fmt.Sprintf("diffprop: arity mismatch substituting %v for %v", wrongType, g.Type))
	}
	m := e.m
	var wrong bdd.Ref
	switch wrongType {
	case netlist.Not:
		wrong = m.Not(e.good[g.Fanin[0]])
	case netlist.Buff:
		wrong = e.good[g.Fanin[0]]
	case netlist.And:
		wrong = m.And(e.good[g.Fanin[0]], e.good[g.Fanin[1]])
	case netlist.Nand:
		wrong = m.Nand(e.good[g.Fanin[0]], e.good[g.Fanin[1]])
	case netlist.Or:
		wrong = m.Or(e.good[g.Fanin[0]], e.good[g.Fanin[1]])
	case netlist.Nor:
		wrong = m.Nor(e.good[g.Fanin[0]], e.good[g.Fanin[1]])
	case netlist.Xor:
		wrong = m.Xor(e.good[g.Fanin[0]], e.good[g.Fanin[1]])
	case netlist.Xnor:
		wrong = m.Xnor(e.good[g.Fanin[0]], e.good[g.Fanin[1]])
	default:
		panic(fmt.Sprintf("diffprop: cannot substitute gate type %v", wrongType))
	}
	return m.Xor(e.good[gate], wrong)
}

// FeedbackChecker returns the engine's fan-out reachability table (built
// in New, immutable, aliased by every Clone). It screens
// feedback bridges in O(1) per pair and provides the packed cone rows the
// worklist propagation merges per fault.
func (e *Engine) FeedbackChecker() *faults.Reachability {
	if e.reach == nil {
		// Zero-value safety only; New always populates the table.
		e.reach = faults.NewReachability(e.Circuit)
	}
	return e.reach
}

// Bridging computes the complete test set for a two-wire non-feedback
// bridging fault. The wire differences follow directly from the wired
// functions: for a wired-AND bridge F_u = F_v = f_u∧f_v, so
// Δ_u = f_u·¬f_v and Δ_v = f_v·¬f_u; dually for wired-OR. The two are
// disjoint (Δ_u ∧ Δ_v = 0), and neither wire lies in the other's fan-out
// cone, so on a vector in Δ_u only u flips and v keeps its good value.
// The bridge is therefore two single-site faults on disjoint vector sets:
// PerPO[o] = (Δ_u ∧ Obs_o(u)) ∨ (Δ_v ∧ Obs_o(v)), and each wire's
// difference climbs its own post-dominator chain (see climb) before
// both top steps are ORed into one result.
func (e *Engine) Bridging(b faults.Bridging) Result {
	du, dv := e.bridgingDeltas(b)
	du, u, stepsU, walkedU := e.climb(du, b.U, -1, -1)
	dv, v, stepsV, walkedV := e.climb(dv, b.V, -1, -1)
	e.endPhase(&e.lastPhases.Build)
	res := Result{PerPO: make([]bdd.Ref, len(e.Circuit.Outputs)), GatesEvaluated: stepsU + stepsV}
	walked := walkedU + walkedV + e.observe(&res, du, u) + e.observe(&res, dv, v)
	return e.finish(res, walked)
}

// bridgingDeltas rejects feedback bridges, then opens the analysis and
// builds both wires' differences.
func (e *Engine) bridgingDeltas(b faults.Bridging) (du, dv bdd.Ref) {
	if e.FeedbackChecker().IsFeedback(b.U, b.V) {
		panic(fmt.Sprintf("diffprop: %v is a feedback bridge", b))
	}
	e.begin()
	m := e.m
	fu, fv := e.good[b.U], e.good[b.V]
	if b.Kind == faults.WiredAND {
		return m.And(fu, m.Not(fv)), m.And(fv, m.Not(fu))
	}
	return m.And(m.Not(fu), fv), m.And(m.Not(fv), fu)
}

// Observability computes the exact observability function of a net: the
// set of input vectors under which inverting the net changes at least one
// primary output — the OR over outputs of the Boolean difference. It is
// the CATAPULT-style factor of the paper's §3 contrast, under which test
// sets are excitation ∧ observability:
//
//	T(SA0) = f_net ∧ Obs(net),   T(SA1) = ¬f_net ∧ Obs(net).
//
// It runs the same post-dominator factoring as StuckAt with a constant-true
// difference, so it shares the engine's cached propagations.
func (e *Engine) Observability(net int) bdd.Ref {
	e.begin()
	return e.factored(bdd.True, net, -1, -1).Complete
}

// checkFresh panics when res was computed before the table's most recent
// compaction: its refs would name renumbered nodes, i.e. silently
// different functions or none at all.
func (e *Engine) checkFresh(res Result, op string) {
	if now := e.m.TableEpoch(); res.epoch != now {
		panic(fmt.Sprintf("diffprop: %s on a stale result: computed at table epoch %d, table is at epoch %d",
			op, res.epoch, now))
	}
}

// WitnessVector extracts one test vector (primary-input declaration
// order) from a result's complete test set, filling don't-cares with
// zero. It returns nil for undetectable faults. Only meaningful without
// functional decomposition (cut variables are ignored). It panics when the
// table has been compacted since res was computed.
func (e *Engine) WitnessVector(res Result) []bool {
	e.checkFresh(res, "WitnessVector")
	cube := e.m.AnySat(res.Complete)
	if cube == nil {
		return nil
	}
	v2i := e.VarToInput()
	vec := make([]bool, len(e.Circuit.Inputs))
	for v, s := range cube {
		if v2i[v] >= 0 && s == 1 {
			vec[v2i[v]] = true
		}
	}
	return vec
}

// MinimalTestCube widens a witness of the complete test set into a
// locally minimal test cube: starting from an AnySat path cube, every
// specified literal that can become a don't-care without leaving the test
// set is dropped. The result (one entry per BDD variable: 0, 1, or -1)
// is a cube all of whose completions are tests — handy for test-set
// compaction and for human-readable fault reports. Returns nil for
// undetectable faults; panics, like WitnessVector, on a stale result.
func (e *Engine) MinimalTestCube(res Result) []int8 {
	e.checkFresh(res, "MinimalTestCube")
	m := e.m
	cube := m.AnySat(res.Complete)
	if cube == nil {
		return nil
	}
	lit := func(v int, s int8) bdd.Ref {
		if s == 1 {
			return m.Var(v)
		}
		return m.NVar(v)
	}
	// Widening literal v tests the cube prefix[v] ∧ suffix[v+1], where the
	// prefix holds the literals kept so far and the suffix the not-yet-
	// visited ones. Maintaining both as running conjunctions needs O(vars)
	// BDD operations total instead of rebuilding the cube from scratch
	// (O(vars²)) after every candidate drop; the drop decisions — and hence
	// the resulting cube — are identical.
	notT := m.Not(res.Complete)
	suffix := make([]bdd.Ref, len(cube)+1)
	suffix[len(cube)] = bdd.True
	for v := len(cube) - 1; v >= 0; v-- {
		suffix[v] = suffix[v+1]
		if cube[v] >= 0 {
			suffix[v] = m.And(suffix[v], lit(v, cube[v]))
		}
	}
	prefix := bdd.True
	for v := range cube {
		if cube[v] < 0 {
			continue
		}
		// The widened cube must still imply the complete test set:
		// cube ∧ ¬T ≡ 0.
		if m.And(m.And(prefix, suffix[v+1]), notT) == bdd.False {
			cube[v] = -1
			continue
		}
		prefix = m.And(prefix, lit(v, cube[v]))
	}
	return cube
}

// StuckAtUpperBound returns the syndrome bound on the fault's
// detectability (§4.1): the syndrome of the line for stuck-at-0, its
// complement for stuck-at-1 — excitation alone caps the test-set size.
func (e *Engine) StuckAtUpperBound(f faults.StuckAt) float64 {
	s := e.Syndrome(f.Net)
	if f.Stuck {
		return 1 - s
	}
	return s
}

// BridgingUpperBound returns the excitation bound for a bridging fault:
// the fault is excited exactly where the two wires disagree, so
// |f_u ⊕ f_v| / 2^n bounds the detectability for both wired-AND and
// wired-OR behavior.
func (e *Engine) BridgingUpperBound(b faults.Bridging) float64 {
	return e.m.SatFrac(e.m.Xor(e.good[b.U], e.good[b.V]))
}

// Adherence is the paper's §4.1 metric: detectability divided by its
// excitation upper bound — the share of exciting minterms that are
// actually tests. It returns (value, ok); ok is false when the bound is
// zero (the fault cannot even be excited).
func Adherence(detectability, upperBound float64) (float64, bool) {
	if upperBound <= 0 {
		return 0, false
	}
	a := detectability / upperBound
	if a > 1 {
		// Guard against float rounding; exact arithmetic guarantees <= 1.
		a = 1
	}
	return a, true
}

// BridgeActsStuckAt implements the Figure 5 classification: the number of
// variables in the faulty function at the bridge site is counted, and a
// count of zero means the bridged wires are stuck at a constant — the
// bridging fault is equivalent to a (double) stuck-at fault. For a
// wired-AND bridge the site function is f_u∧f_v; for wired-OR, f_u∨f_v.
func (e *Engine) BridgeActsStuckAt(b faults.Bridging) bool {
	m := e.m
	var site bdd.Ref
	if b.Kind == faults.WiredAND {
		site = m.And(e.good[b.U], e.good[b.V])
	} else {
		site = m.Or(e.good[b.U], e.good[b.V])
	}
	return m.SupportSize(site) == 0
}

// DFSOrder returns a variable order produced by depth-first traversal of
// the circuit from the primary outputs, visiting fan-ins in pin order —
// the classic topology-driven ordering heuristic offered as an
// alternative to benchmark declaration order.
func DFSOrder(c *netlist.Circuit) []string {
	seen := make([]bool, c.NumNets())
	var order []string
	var walk func(int)
	walk = func(net int) {
		if seen[net] {
			return
		}
		seen[net] = true
		g := c.Gates[net]
		if g.Type == netlist.Input {
			order = append(order, g.Name)
			return
		}
		for _, f := range g.Fanin {
			walk(f)
		}
	}
	for _, o := range c.Outputs {
		walk(o)
	}
	// Unreachable inputs still need a variable.
	for _, in := range c.Inputs {
		if !seen[in] {
			order = append(order, c.Gates[in].Name)
		}
	}
	return order
}
