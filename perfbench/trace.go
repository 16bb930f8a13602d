package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Counts holds the counters read at the
// same boundary.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // -1 for the root
	Name   string           `json:"name"`
	Label  string           `json:"label,omitempty"`
	Start  float64          `json:"start_ms"` // since the trace began
	End    float64          `json:"end_ms"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(ts time.Time) float64 {
	return float64(ts.Sub(t.t0).Nanoseconds()) / 1e6
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name, label string) int {
	if t == nil {
		return -1
	}
	now := t.at(time.Now())
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Label: label, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.at(time.Now())
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(parent int, name, label string, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	s := t.at(start)
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Label: label, Start: s, End: s + float64(d.Nanoseconds())/1e6})
	return len(t.spans) - 1
}

// count adds v to counter key of span id.
func (t *tracer) count(id int, key string, v int64) {
	if t == nil || id < 0 {
		return
	}
	if t.spans[id].Counts == nil {
		t.spans[id].Counts = map[string]int64{}
	}
	t.spans[id].Counts[key] += v
}

// timed runs fn inside a span.
func (t *tracer) timed(parent int, name, label string, fn func()) {
	id := t.begin(parent, name, label)
	fn()
	t.end(id)
}

// Span names. Each layer's per-layer metrics are sums, quantiles or
// counter ratios over the spans of its names.
const (
	spanWorkload    = "workload"
	spanSetup       = "setup"
	spanPass        = "pass"
	spanGet         = "circuits.get"
	spanDecompose   = "netlist.decompose"
	spanCheckpoint  = "faults.checkpoint"
	spanBridgingSet = "analysis.bridging_set"
	spanNewRunner   = "experiments.new_runner"
	spanExhibit     = "experiments.exhibit"
	spanCampaign    = "analysis.campaign"
	spanNew         = "diffprop.new"
	spanFault       = "diffprop.fault"
	spanSeed        = "diffprop.seed"
	spanPropagate   = "diffprop.propagate"
	spanSatCount    = "diffprop.satcount"
)

// Counter keys.
const (
	cntOps            = "bdd.ops"
	cntGateEvals      = "diffprop.gate_evals"
	cntRebuilds       = "diffprop.rebuilds"
	cntPeakNodes      = "bdd.peak_nodes"
	cntNodesLive      = "bdd.nodes_live"
	cntNodesReclaimed = "bdd.nodes_reclaimed"
	cntTableNodes     = "bdd.table_nodes"
	cntTableBuckets   = "bdd.table_buckets"
	cntApplyHits      = "bdd.apply_hits"
	cntApplyMisses    = "bdd.apply_misses"
	cntIteHits        = "bdd.ite_hits"
	cntIteMisses      = "bdd.ite_misses"
	cntNotHits        = "bdd.not_hits"
	cntNotMisses      = "bdd.not_misses"
)

// layerTotals folds the spans into per-name durations and counter sums.
type layerTotals struct {
	ms      map[string]float64 // summed duration by span name
	faultMs []float64
	counts  map[string]int64 // summed over all spans
	peak    int64            // largest cntPeakNodes seen
}

func (t *tracer) totals() layerTotals {
	lt := layerTotals{ms: map[string]float64{}, counts: map[string]int64{}}
	for _, s := range t.spans {
		lt.ms[s.Name] += s.ms()
		if s.Name == spanFault {
			lt.faultMs = append(lt.faultMs, s.ms())
		}
		for k, v := range s.Counts {
			if k == cntPeakNodes {
				lt.peak = max(lt.peak, v)
				continue
			}
			lt.counts[k] += v
		}
	}
	return lt
}

// write stores the spans as JSON, with the run's stamp.
func (t *tracer) write(path string, stamp map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"stamp": stamp, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
