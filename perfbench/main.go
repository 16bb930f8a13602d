// Command perfbench is the repository's end-to-end benchmark of the
// Difference Propagation campaigns. It runs one workload through the
// public APIs users call (analysis.RunStuckAtCampaign,
// analysis.RunBridgingCampaign, experiments.Runner) with the user-default
// configuration, checks every record against the stuck-at golden or the
// bridging simulation oracle, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 1 it instead runs the workload once untraced and once with
// spans recorded at every layer boundary, prints the per-layer metrics and
// writes the spans to .bench_build/traces/. See README.md for the workloads, the
// metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"time"
)

// A run generates its inputs at least setupMinReps times and for at least
// setupMinTime; setup_s is the median.
const (
	setupMinReps = 5
	setupMinTime = 500 * time.Millisecond
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"faults_per_s", "1/s"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_live_heap_mib", "MiB"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"netlist.decompose_ms", "ms"},
	{"diffprop.new_ms", "ms"},
	{"diffprop.seed_ms", "ms"},
	{"diffprop.propagate_ms", "ms"},
	{"diffprop.satcount_ms", "ms"},
	{"diffprop.fault_p50_ms", "ms"},
	{"diffprop.fault_p99_ms", "ms"},
	{"diffprop.gate_evals_per_fault", "count"},
	{"diffprop.rebuilds", "count"},
	{"bdd.ops_per_fault", "count"},
	{"bdd.ns_per_op", "ns"},
	{"bdd.apply_hit_rate", "ratio"},
	{"bdd.ite_hit_rate", "ratio"},
	{"bdd.table_load", "ratio"},
	{"bdd.nodes_per_fault", "count"},
	{"bdd.peak_nodes", "count"},
	{"analysis.cpu_util", "ratio"},
	{"analysis.cache_hit_rate", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: sa-serial, figures-quick or bridging-serial")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 30, "measure whole passes for about this long (at least one pass)")
	trace := fl.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	commit := fl.String("commit", "", "commit stamped on the report")
	regen := fl.String("regen-golden", "", "rewrite the stuck-at golden files in this directory and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *regen != "" {
		if err := regenerateGolden(*regen, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload sa-serial|figures-quick|bridging-serial, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	stamp := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"commit": commitOf(*commit), "go": runtime.Version(),
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d commit=%s go=%s cpus=%d gomaxprocs=%d\n",
		w.name, *seed, *seconds, *trace, stamp["commit"], stamp["go"], stamp["cpus"], stamp["gomaxprocs"])

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	root := tr.begin(-1, spanWorkload, w.name)

	// Set-up: generate the inputs until setupMinReps runs and setupMinTime
	// have passed; a traced run then sets up once more under the tracer.
	var in *inputs
	var setupS []float64
	setupStart := time.Now()
	setup := func(t *tracer, parent int) bool {
		runtime.GC() // every repetition starts from the same heap
		t0 := time.Now()
		var err error
		if in, err = w.setup(*seed, t, parent); err != nil {
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return false
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return true
	}
	for len(setupS) < setupMinReps || time.Since(setupStart) < setupMinTime {
		if !setup(nil, -1) {
			return 1
		}
	}
	if tr != nil {
		id := tr.begin(root, spanSetup, "")
		ok := setup(tr, id)
		tr.end(id)
		if !ok {
			return 1
		}
	}

	var outs []*passOut
	pass := func(t *tracer, parent int) bool {
		runtime.GC()
		out, err := w.pass(in, t, parent)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: pass:", err)
			return false
		}
		outs = append(outs, out)
		return true
	}
	if tr == nil {
		budget := time.Duration(*seconds) * time.Second
		var elapsed time.Duration
		for {
			if !pass(nil, -1) {
				return 1
			}
			last := outs[len(outs)-1].wall
			if elapsed += last; elapsed+last > budget {
				break
			}
		}
	} else {
		if !pass(nil, -1) {
			return 1
		}
		id := tr.begin(root, spanPass, "")
		ok := pass(tr, id)
		tr.end(id)
		if !ok {
			return 1
		}
	}
	tr.end(root)

	// The oracles check the first pass; every later pass, traced or not,
	// ran the same inputs and must reproduce its records exactly.
	res := result{Metrics: map[string]metricValue{}}
	var first string
	for i, out := range outs {
		failed, msg := 0, ""
		if i == 0 {
			failed, res.Attempted, msg = check(out, *seed)
		} else {
			failed, msg = sameRecords(outs[0], out)
			res.Attempted += out.faultCount()
		}
		res.Failed += failed
		if first == "" && failed > 0 {
			first = msg
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(stdout, "failed_frac %g (%d of %d records)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	if first != "" {
		fmt.Fprintln(stdout, "first failure:", first)
	}

	var vals map[string]float64
	defs := endToEnd
	if tr == nil {
		vals = endToEndValues(outs, setupS)
	} else {
		defs = perLayer
		vals = perLayerValues(tr, outs[0], outs[1], w.workers)
		path := fmt.Sprintf(".bench_build/traces/%s-%d.json", w.name, *seed)
		if err := tr.write(path, stamp); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintln(stdout, "spans written to", path)
		printBreakdown(stdout, tr)
	}
	for _, d := range defs {
		v := vals[d.name]
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(stdout, "%-32s %16.6f %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// commitOf prefers the flag, then the build's VCS stamp.
func commitOf(flagValue string) string {
	if flagValue != "" {
		return flagValue
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// faultCount is the number of faults a pass analyzed.
func (p *passOut) faultCount() int {
	n := 0
	for _, r := range p.sa {
		n += len(r.s.Records)
	}
	for _, r := range p.bf {
		n += len(r.s.Records)
	}
	if p.x7 != nil {
		if g, err := loadGolden(optimizedC1355); err == nil {
			n += len(g.Records)
		}
	}
	return n
}

func endToEndValues(outs []*passOut, setupS []float64) map[string]float64 {
	var wall, cpu, rate []float64
	var peak uint64
	for _, o := range outs {
		wall = append(wall, o.wall.Seconds())
		cpu = append(cpu, o.cpu.Seconds())
		rate = append(rate, float64(o.faultCount())/o.wall.Seconds())
		peak = max(peak, o.peakHeap)
	}
	return map[string]float64{
		"faults_per_s":       median(rate),
		"wall_s":             median(wall),
		"setup_s":            median(setupS),
		"cpu_s":              median(cpu),
		"peak_live_heap_mib": float64(peak) / (1 << 20),
	}
}

func perLayerValues(tr *tracer, base, traced *passOut, workers int) map[string]float64 {
	lt := tr.totals()
	faults := float64(len(lt.faultMs))
	c := func(k string) float64 { return float64(lt.counts[k]) }
	hits := c(cntApplyHits) + c(cntIteHits) + c(cntNotHits)
	misses := c(cntApplyMisses) + c(cntIteMisses) + c(cntNotMisses)
	return map[string]float64{
		"netlist.decompose_ms":          lt.ms[spanDecompose],
		"diffprop.new_ms":               lt.ms[spanNew],
		"diffprop.seed_ms":              lt.ms[spanSeed],
		"diffprop.propagate_ms":         lt.ms[spanPropagate],
		"diffprop.satcount_ms":          lt.ms[spanSatCount],
		"diffprop.fault_p50_ms":         quantile(lt.faultMs, 0.5),
		"diffprop.fault_p99_ms":         quantile(lt.faultMs, 0.99),
		"diffprop.gate_evals_per_fault": ratio(c(cntGateEvals), faults),
		"diffprop.rebuilds":             c(cntRebuilds),
		"bdd.ops_per_fault":             ratio(c(cntOps), faults),
		"bdd.ns_per_op":                 ratio(lt.ms[spanFault]*1e6, c(cntOps)),
		"bdd.apply_hit_rate":            ratio(c(cntApplyHits), c(cntApplyHits)+c(cntApplyMisses)),
		"bdd.ite_hit_rate":              ratio(c(cntIteHits), c(cntIteHits)+c(cntIteMisses)),
		"bdd.table_load":                ratio(c(cntTableNodes), c(cntTableBuckets)),
		"bdd.nodes_per_fault":           ratio(c(cntNodesReclaimed)+c(cntNodesLive), faults),
		"bdd.peak_nodes":                float64(lt.peak),
		"analysis.cpu_util":             ratio(base.cpu.Seconds(), base.wall.Seconds()*float64(workers)),
		"analysis.cache_hit_rate":       ratio(hits, hits+misses),
		"trace.overhead_frac":           traced.wall.Seconds()/base.wall.Seconds() - 1,
	}
}

// printBreakdown prints the per-campaign, per-exhibit and bridging-sample
// times of a traced run; they exist on one workload each, so they are not
// in BENCHMARK.json.
func printBreakdown(w io.Writer, tr *tracer) {
	lt := tr.totals()
	for _, s := range tr.spans {
		switch s.Name {
		case spanCampaign:
			fmt.Fprintf(w, "analysis.campaign_s.%-12s %16.6f s\n", s.Label, s.ms()/1e3)
		case spanExhibit:
			fmt.Fprintf(w, "experiments.exhibit_s.%-10s %16.6f s\n", s.Label, s.ms()/1e3)
		}
	}
	if ms, ok := lt.ms[spanBridgingSet]; ok {
		fmt.Fprintf(w, "%-32s %16.6f ms\n", "analysis.bridging_set_ms", ms)
	}
}

// check runs the oracles over one pass and returns the failed and
// attempted record counts and the first failure.
func check(out *passOut, seed int64) (failed, attempted int, first string) {
	note := func(n int, msg string) {
		failed += n
		if first == "" && n > 0 {
			first = msg
		}
	}
	for _, r := range out.sa {
		attempted += len(r.s.Records)
		note(notExact(r.s.Records), r.name+": records not exact")
		note(checkStuckAt(r.name, r.s))
	}
	for i, r := range out.bf {
		attempted += len(r.s.Records)
		note(notExactBridging(r.s.Records), r.c.label+": records not exact")
		note(sameBridges(r.c, r.s), r.c.label+": fault set differs from the workload's sample")
		note(checkBridging(r.c.label, r.c.work, r.s, seed+int64(i)))
	}
	if out.x7 != nil {
		n, msg := checkX7(out.x7)
		attempted += n
		if msg != "" {
			note(1, msg)
		}
	}
	return failed, attempted, first
}

// sameRecords compares the records of two passes over the same inputs and
// returns the number of differing records and the first study they are in.
func sameRecords(a, b *passOut) (int, string) {
	if len(a.sa) != len(b.sa) || len(a.bf) != len(b.bf) {
		return 1, "repeated pass: different study counts"
	}
	n, first := 0, ""
	note := func(label string, k int) {
		n += k
		if first == "" && k > 0 {
			first = "repeated pass: records differ on " + label
		}
	}
	for i := range a.sa {
		note(a.sa[i].name, differing(a.sa[i].s.Records, b.sa[i].s.Records))
	}
	for i := range a.bf {
		note(a.bf[i].c.label, differing(a.bf[i].s.Records, b.bf[i].s.Records))
	}
	if !reflect.DeepEqual(a.x7, b.x7) {
		note("x7", 1)
	}
	return n, first
}

// differing counts the indices where two record lists disagree, a missing
// record included.
func differing[R comparable](a, b []R) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
