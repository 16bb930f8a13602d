package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/report"
)

// workload is one benchmark input set: setup generates the inputs from the
// seed (timed as setup_s), pass runs them once through the public APIs
// (timed as wall_s). A non-nil tracer selects the traced variant of the
// pass, which records spans and counters at each layer boundary.
type workload struct {
	name    string
	workers int
	setup   func(seed int64, tr *tracer, parent int) (*inputs, error)
	pass    func(in *inputs, tr *tracer, parent int) (*passOut, error)
}

var workloads = []workload{
	{"sa-serial", 1, setupStuckAt, passSerial},
	{"figures-quick", 2, setupFigures, passFigures},
	{"bridging-serial", 1, setupBridging, passSerial},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// saCircuits are sa-serial's circuits: C499 and its XOR-expanded twin
// C1355 are the paper's topology contrast; C432 adds a third topology.
var saCircuits = []string{"c432s", "c499s", "c1355s"}

// bridgingCircuit is bridging-serial's circuit. Its complete AND and OR
// NFBF populations (26,114 faults) are analyzed, so, like sa-serial's
// fault sets, they do not depend on the seed. Seeded samples of c499s and
// c1908s were tried first and dropped; README.md gives the measurements.
const bridgingCircuit = "c432s"

const bridgingTheta = 0.3

var bridgeKinds = []faults.BridgeKind{faults.WiredAND, faults.WiredOR}

func kindName(k faults.BridgeKind) string {
	if k == faults.WiredOR {
		return "or"
	}
	return "and"
}

// campaign is one whole fault set: a stuck-at checkpoint set, or a
// bridging sample of one kind.
type campaign struct {
	label   string           // circuit name, plus ".and"/".or" for bridging
	name    string           // catalog name
	circuit *netlist.Circuit // as circuits.Get returns it
	work    *netlist.Circuit // its Decompose2, the numbering faults use
	sa      []faults.StuckAt
	bridges []faults.Bridging
	kind    faults.BridgeKind
	pop     int
	sampled bool
}

type inputs struct {
	campaigns []campaign
	// figures-quick only: the configuration, and the runner its first
	// pass uses (later passes build a fresh one, since a runner caches
	// its studies).
	cfg    experiments.Config
	runner *experiments.Runner
}

// passOut is what one pass produced, for the oracles and the metrics.
type passOut struct {
	wall, cpu time.Duration
	peakHeap  uint64
	sa        []saResult
	bf        []bfResult
	x7        *report.Table // figures-quick: the X7 exhibit
}

type saResult struct {
	name string // golden key
	s    *analysis.StuckAtStudy
}

type bfResult struct {
	c *campaign
	s *analysis.BridgingStudy
}

// timePass measures fn as the timed phase of a pass.
func timePass(out *passOut, fn func() error) error {
	heap := startHeapSampler(5 * time.Millisecond)
	c0, t0 := cpuTime(), time.Now()
	err := fn()
	out.wall, out.cpu = time.Since(t0), cpuTime()-c0
	out.peakHeap = heap.Stop()
	return err
}

func prepare(name string, tr *tracer, parent int) (c, work *netlist.Circuit, err error) {
	tr.timed(parent, spanGet, name, func() { c, err = circuits.Get(name) })
	if err != nil {
		return nil, nil, err
	}
	tr.timed(parent, spanDecompose, name, func() { work = c.Decompose2() })
	return c, work, nil
}

func setupStuckAt(_ int64, tr *tracer, parent int) (*inputs, error) {
	in := &inputs{}
	for _, name := range saCircuits {
		c, work, err := prepare(name, tr, parent)
		if err != nil {
			return nil, err
		}
		var fs []faults.StuckAt
		tr.timed(parent, spanCheckpoint, name, func() { fs = faults.CheckpointStuckAts(work) })
		in.campaigns = append(in.campaigns, campaign{label: name, name: name, circuit: c, work: work, sa: fs})
	}
	return in, nil
}

// addBridging appends one bridging campaign per kind.
func (in *inputs) addBridging(name string, c, work *netlist.Circuit, maxBFs int, theta float64, seed int64, tr *tracer, parent int) {
	for _, kind := range bridgeKinds {
		cp := campaign{label: name + "." + kindName(kind), name: name, circuit: c, work: work, kind: kind}
		tr.timed(parent, spanBridgingSet, cp.label, func() {
			cp.bridges, cp.pop, cp.sampled = analysis.BridgingSet(work, kind, maxBFs, theta, seed)
		})
		in.campaigns = append(in.campaigns, cp)
	}
}

func setupBridging(seed int64, tr *tracer, parent int) (*inputs, error) {
	c, work, err := prepare(bridgingCircuit, tr, parent)
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	in.addBridging(bridgingCircuit, c, work, math.MaxInt, bridgingTheta, seed, tr, parent)
	return in, nil
}

// figuresConfig is the user's quick regeneration, pinned to two workers.
func figuresConfig(seed int64) experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Workers = 2
	cfg.Seed = seed
	return cfg
}

// figuresStuckAt lists the catalog stuck-at studies figures-quick runs:
// the trend circuits plus X7's c499s and c1355s.
func figuresStuckAt(cfg experiments.Config) []string {
	return append(append([]string(nil), cfg.Circuits...), "c499s", "c1355s")
}

// setupFigures generates the bridging samples the quick exhibits draw (the
// oracle checks the runner's studies against them) and builds the runner.
func setupFigures(seed int64, tr *tracer, parent int) (*inputs, error) {
	in := &inputs{cfg: figuresConfig(seed)}
	for _, name := range in.cfg.Circuits {
		c, work, err := prepare(name, tr, parent)
		if err != nil {
			return nil, err
		}
		in.addBridging(name, c, work, in.cfg.MaxBFs, in.cfg.Theta, in.cfg.Seed, tr, parent)
	}
	tr.timed(parent, spanNewRunner, "", func() { in.runner = experiments.NewRunner(in.cfg) })
	return in, nil
}

// passSerial runs the serial workloads. Untraced, each campaign goes
// through the campaign API at one worker. Traced, the benchmark drives
// the engine itself, one fault at a time, so it can time every
// Engine.StuckAt/Bridging call and read the engine's counters after it.
func passSerial(in *inputs, tr *tracer, parent int) (*passOut, error) {
	out := &passOut{}
	err := timePass(out, func() error {
		for i := range in.campaigns {
			c := &in.campaigns[i]
			if tr != nil {
				if err := tracedCampaign(c, out, tr, parent); err != nil {
					return err
				}
				continue
			}
			cfg := analysis.CampaignConfig{Workers: 1}
			if c.sa != nil {
				s, err := analysis.RunStuckAtCampaign(c.circuit, nil, c.sa, cfg)
				if err != nil {
					return fmt.Errorf("%s: %w", c.label, err)
				}
				out.sa = append(out.sa, saResult{c.name, &s})
				continue
			}
			s, err := analysis.RunBridgingCampaign(c.circuit, nil, c.bridges, c.kind, c.pop, c.sampled, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", c.label, err)
			}
			out.bf = append(out.bf, bfResult{c, &s})
		}
		return nil
	})
	return out, err
}

// tracedCampaign analyzes one campaign fault by fault on its own engine.
func tracedCampaign(c *campaign, out *passOut, tr *tracer, parent int) error {
	cs := tr.begin(parent, spanCampaign, c.label)
	defer tr.end(cs)
	ns := tr.begin(cs, spanNew, c.name)
	e, err := diffprop.New(c.circuit, nil)
	tr.end(ns)
	if err != nil {
		return fmt.Errorf("%s: %w", c.label, err)
	}
	countTable(tr, ns, e)
	e.EnablePhaseTiming(true)
	fault := func(i int, analyze func() int) {
		t0 := time.Now()
		fs := tr.begin(cs, spanFault, strconv.Itoa(i))
		gates := analyze()
		tr.end(fs)
		tr.count(fs, cntOps, e.AnalysisOps())
		tr.count(fs, cntGateEvals, int64(gates))
		ph := e.LastPhases()
		tr.add(fs, spanSeed, "", t0, ph.Build)
		tr.add(fs, spanPropagate, "", t0.Add(ph.Build), ph.Propagate)
		tr.add(fs, spanSatCount, "", t0.Add(ph.Build+ph.Propagate), ph.SatCount)
	}
	if c.sa != nil {
		s := analysis.RunStuckAt(e, nil)
		for i := range c.sa {
			fault(i, func() int {
				one := analysis.RunStuckAt(e, c.sa[i:i+1])
				s.Records = append(s.Records, one.Records[0])
				return one.Records[0].GatesEvaluated
			})
		}
		out.sa = append(out.sa, saResult{c.name, &s})
	} else {
		s := analysis.RunBridging(e, nil, c.kind, c.pop, c.sampled)
		for i := range c.bridges {
			fault(i, func() int {
				one := analysis.RunBridging(e, c.bridges[i:i+1], c.kind, c.pop, c.sampled)
				s.Records = append(s.Records, one.Records[0])
				return 0 // bridging records carry no gate count
			})
		}
		out.bf = append(out.bf, bfResult{c, &s})
	}
	st := e.Stats()
	if c.bridges != nil {
		tr.count(cs, cntGateEvals, st.GateEvaluations)
	}
	tr.count(cs, cntRebuilds, int64(st.Rebuilds))
	tr.count(cs, cntPeakNodes, int64(st.PeakNodes))
	tr.count(cs, cntNodesReclaimed, st.NodesReclaimed)
	tr.count(cs, cntNodesLive, int64(e.Manager().NodeCount()))
	countCache(tr, cs, st.Cache)
	return nil
}

// countTable records an engine's unique-table occupancy after its build.
func countTable(tr *tracer, id int, e *diffprop.Engine) {
	nodes, buckets := e.Manager().TableLoad()
	tr.count(id, cntTableNodes, nodes)
	tr.count(id, cntTableBuckets, buckets)
}

// countCache records op-cache traffic.
func countCache(tr *tracer, id int, c bdd.CacheStats) {
	tr.count(id, cntApplyHits, c.ApplyHits)
	tr.count(id, cntApplyMisses, c.ApplyMisses)
	tr.count(id, cntIteHits, c.IteHits)
	tr.count(id, cntIteMisses, c.IteMisses)
	tr.count(id, cntNotHits, c.NotHits)
	tr.count(id, cntNotMisses, c.NotMisses)
}

// exhibit is one call of Runner.All, in its order.
type exhibit struct {
	id  string
	run func() (report.Table, error)
}

func exhibits(r *experiments.Runner) []exhibit {
	// Each exhibit is rendered as Runner.All renders it.
	fig := func(f func() (report.Figure, error)) func() (report.Table, error) {
		return func() (report.Table, error) {
			g, err := f()
			_, _ = g.Text(), g.CSV()
			return report.Table{}, err
		}
	}
	tab := func(f func() (report.Table, error)) func() (report.Table, error) {
		return func() (report.Table, error) {
			t, err := f()
			_, _ = t.Text(), t.CSV()
			return t, err
		}
	}
	return []exhibit{
		{"table1", tab(func() (report.Table, error) { return r.Table1(), nil })},
		{"fig1", fig(r.Fig1)}, {"fig2", fig(r.Fig2)}, {"fig3", fig(r.Fig3)}, {"fig4", fig(r.Fig4)},
		{"fig5", fig(r.Fig5)}, {"fig6", fig(r.Fig6)}, {"fig7", fig(r.Fig7)}, {"fig8", fig(r.Fig8)},
		{"x1", tab(r.X1)}, {"x2", tab(r.X2)}, {"x3", tab(r.X3)}, {"x4", tab(r.X4)},
		{"x5", tab(r.X5)}, {"x6", tab(r.X6)}, {"x7", tab(r.X7)}, {"x8", tab(r.X8)},
		{"x9", tab(r.X9)}, {"x10", tab(r.X10)}, {"x11", tab(r.X11)}, {"x12", tab(r.X12)},
		{"summary", tab(r.Summary)},
	}
}

// passFigures regenerates every quick exhibit. Traced, the runner carries
// an observer: the campaigns inside the exhibits are not reachable from
// the benchmark, so their fault and phase spans come from the program's
// per-fault tracer and flight recorder, attached through the public
// experiments.Config.Obs.
func passFigures(in *inputs, tr *tracer, parent int) (*passOut, error) {
	cfg := in.cfg
	r := in.runner
	in.runner = nil
	var o *obs.Observer
	var spans bytes.Buffer
	var obsStart time.Time
	var liveAtEnd int64
	if tr != nil {
		obsStart = time.Now()
		o = &obs.Observer{
			Metrics: obs.NewRegistry(),
			Tracer:  obs.NewTracer(&spans, obs.FormatJSONL),
			Flight:  obs.NewFlightRecorder(1 << 17),
		}
		cfg.Obs = o
		cfg.Progress = func(_ string, done, total int) {
			if done == total {
				liveAtEnd += o.CampaignMetrics().BDDNodes.Value()
			}
		}
		r = nil
	}
	if r == nil {
		r = experiments.NewRunner(cfg)
	}
	out := &passOut{}
	var exIDs []int
	err := timePass(out, func() error {
		for _, ex := range exhibits(r) {
			id := tr.begin(parent, spanExhibit, ex.id)
			t, err := ex.run()
			tr.end(id)
			exIDs = append(exIDs, id)
			if err != nil {
				return fmt.Errorf("%s: %w", ex.id, err)
			}
			if ex.id == "x7" {
				out.x7 = &t
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The studies are cached in the runner; fetching them costs nothing.
	for _, name := range figuresStuckAt(cfg) {
		s, err := r.StuckAtStudy(name)
		if err != nil {
			return nil, err
		}
		out.sa = append(out.sa, saResult{name, s})
	}
	for i := range in.campaigns {
		c := &in.campaigns[i]
		s, err := r.BridgingStudy(c.name, c.kind)
		if err != nil {
			return nil, err
		}
		out.bf = append(out.bf, bfResult{c, s})
	}
	if tr != nil {
		if err := traceFigures(tr, parent, exIDs, obsStart, &spans, o, liveAtEnd, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceFigures turns the observer's records into spans and counters, then
// times an engine build per circuit the quick figures analyze.
func traceFigures(tr *tracer, parent int, exIDs []int, obsStart time.Time, spans *bytes.Buffer, o *obs.Observer, liveAtEnd int64, out *passOut) error {
	dec := json.NewDecoder(spans)
	for dec.More() {
		var ev struct {
			TS        int64 `json:"ts_us"`
			Dur       int64 `json:"dur_us"`
			Index     int   `json:"i"`
			Build     int64 `json:"build_us"`
			Propagate int64 `json:"propagate_us"`
			SatCount  int64 `json:"satcount_us"`
		}
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("fault trace: %w", err)
		}
		start := obsStart.Add(time.Duration(ev.TS) * time.Microsecond)
		us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
		fs := tr.add(enclosing(tr, exIDs, start), spanFault, strconv.Itoa(ev.Index), start, us(ev.Dur))
		tr.add(fs, spanSeed, "", start, us(ev.Build))
		tr.add(fs, spanPropagate, "", start.Add(us(ev.Build)), us(ev.Propagate))
		tr.add(fs, spanSatCount, "", start.Add(us(ev.Build+ev.Propagate)), us(ev.SatCount))
	}
	if _, dropped := o.Flight.Total(); dropped > 0 {
		return fmt.Errorf("flight recorder dropped %d events; op and GC counts would be short", dropped)
	}
	for _, ev := range o.Flight.Snapshot() {
		switch ev.Kind {
		case "fault":
			tr.count(parent, cntOps, ev.B)
		case "gc":
			tr.count(parent, cntNodesReclaimed, ev.A)
		}
	}
	cm := o.CampaignMetrics()
	tr.count(parent, cntGateEvals, cm.GateEvaluations.Value())
	tr.count(parent, cntRebuilds, cm.BDDRebuilds.Value())
	tr.count(parent, cntPeakNodes, cm.BDDPeakNodes.Value())
	tr.count(parent, cntNodesLive, liveAtEnd)
	// Per-op cache traffic comes from the catalog studies' stats; X7's
	// re-minimized campaign is internal to its exhibit and returns none.
	for _, r := range out.sa {
		countCache(tr, parent, r.s.Stats.Cache)
	}
	for _, r := range out.bf {
		countCache(tr, parent, r.s.Stats.Cache)
	}
	names := []string{optimizedC1355}
	for _, r := range out.sa {
		names = append(names, r.name)
	}
	for _, name := range names {
		c, err := goldenCircuit(name)
		if err != nil {
			return err
		}
		ns := tr.begin(parent, spanNew, name)
		e, err := diffprop.New(c, nil)
		tr.end(ns)
		if err != nil {
			return err
		}
		countTable(tr, ns, e)
	}
	return nil
}

// enclosing returns the span among ids whose interval holds ts.
func enclosing(tr *tracer, ids []int, ts time.Time) int {
	at := tr.at(ts)
	for _, id := range ids {
		if s := tr.spans[id]; s.Start <= at && at <= s.End {
			return id
		}
	}
	return ids[len(ids)-1]
}
