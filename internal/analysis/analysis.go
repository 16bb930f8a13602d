// Package analysis runs the paper's experiments on top of Difference
// Propagation: exact detectability profiles, syndromes and adherence for
// stuck-at fault sets (§4.1) and bridging fault sets (§4.2), the
// topology studies (detectability versus distance to the primary
// outputs/inputs), the "POs fed versus POs observable" comparison, and the
// Figure 5 classification of bridging faults with stuck-at behavior.
package analysis

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/netlist"
)

// StuckAtRecord is the full analysis of one stuck-at fault.
type StuckAtRecord struct {
	Fault         faults.StuckAt
	Detectability float64
	UpperBound    float64 // syndrome bound (§4.1)
	Adherence     float64
	AdherenceOK   bool // false when the fault cannot be excited
	ObservedPOs   int  // number of POs where the fault is observable
	POsFed        int  // number of POs in the site's fan-out cone
	MaxLevelsToPO int  // paper's Figure 3 X axis
	LevelFromPI   int  // controllability-side distance
	IsPOFault     bool
	// GatesEvaluated counts the BDD ANDs on the fault's chain of immediate
	// post-dominators: one per binary single-consumer gate and one per
	// cached stem transfer (see diffprop.Engine.StuckAt); the rest of the
	// circuit is reached through the top's cached observability.
	GatesEvaluated int
	// Approximate marks a record whose Detectability is a random-vector
	// estimate over EstimateVectors patterns: the exact analysis blew its
	// per-fault resource budget and degraded to simulation. Adherence and
	// observability fields are not computed for degraded records.
	Approximate     bool `json:",omitempty"`
	EstimateVectors int  `json:",omitempty"`
	// Err carries the message of a panic isolated during this fault's
	// analysis; all analysis fields are zero when it is set.
	Err string `json:",omitempty"`
	// Skipped marks a fault never analyzed because the campaign was
	// cancelled (or aborted on a checkpoint error) before reaching it.
	Skipped bool `json:",omitempty"`
}

// Detectable reports whether the fault has a non-empty test set.
func (r StuckAtRecord) Detectable() bool { return r.Detectability > 0 }

// BridgingRecord is the full analysis of one bridging fault.
type BridgingRecord struct {
	Fault         faults.Bridging
	Detectability float64
	UpperBound    float64 // excitation bound |f_u XOR f_v| / 2^n
	Adherence     float64
	AdherenceOK   bool
	ObservedPOs   int
	POsFed        int // union of both wires' cones
	MaxLevelsToPO int // max over the two wires
	ActsStuckAt   bool
	// Approximate, EstimateVectors, Err and Skipped mirror the stuck-at
	// record's degradation and isolation markers (see StuckAtRecord).
	Approximate     bool   `json:",omitempty"`
	EstimateVectors int    `json:",omitempty"`
	Err             string `json:",omitempty"`
	Skipped         bool   `json:",omitempty"`
}

// Detectable reports whether the fault has a non-empty test set.
func (r BridgingRecord) Detectable() bool { return r.Detectability > 0 }

// StuckAtStudy is a complete stuck-at campaign over one circuit.
type StuckAtStudy struct {
	Circuit     string
	NetlistSize int // gate count of the analyzed netlist
	NumPIs      int
	NumPOs      int
	Records     []StuckAtRecord
	// Stats holds the campaign's runtime counters. Filled by the campaign
	// runners; zero for plain serial RunStuckAt calls. Excluded from
	// serial-vs-parallel equality: it reflects how the work was scheduled,
	// not what was computed.
	Stats CampaignStats
}

// BridgingStudy is a complete bridging campaign over one circuit.
type BridgingStudy struct {
	Circuit     string
	Kind        faults.BridgeKind
	NetlistSize int
	NumPIs      int
	NumPOs      int
	Sampled     bool // true when the fault set was layout-sampled
	Population  int  // size of the potentially detectable NFBF population
	Records     []BridgingRecord
	// Stats holds the campaign's runtime counters (see StuckAtStudy.Stats).
	Stats CampaignStats
}

// siteDistances returns (max levels to PO, level) for a stuck-at site.
// Branch faults sit at the consumer gate's input, one level above the
// gate's own distance.
func siteDistances(c *netlist.Circuit, f faults.StuckAt, toPO, levels []int) (int, int) {
	if f.IsBranch() {
		d := toPO[f.Gate]
		if d >= 0 {
			d++
		}
		return d, levels[f.Net]
	}
	return toPO[f.Net], levels[f.Net]
}

// stuckAtRecord analyzes one stuck-at fault. It is the single source of
// truth for both the serial and the work-stealing runners, which keeps
// parallel results bit-identical to serial ones by construction.
func stuckAtRecord(e *diffprop.Engine, f faults.StuckAt, toPO, levels []int) StuckAtRecord {
	c := e.Circuit
	res := e.StuckAt(f)
	ub := e.StuckAtUpperBound(f)
	a, ok := diffprop.Adherence(res.Detectability, ub)
	dist, lvl := siteDistances(c, f, toPO, levels)
	// A branch fault reaches the outputs only through its consumer
	// gate, so its fed-PO set is the gate's cone, not the stem's.
	fedSite := f.Net
	if f.IsBranch() {
		fedSite = f.Gate
	}
	return StuckAtRecord{
		Fault:          f,
		Detectability:  res.Detectability,
		UpperBound:     ub,
		Adherence:      a,
		AdherenceOK:    ok,
		ObservedPOs:    len(res.ObservedPOs),
		POsFed:         len(c.POsFed(fedSite)),
		MaxLevelsToPO:  dist,
		LevelFromPI:    lvl,
		IsPOFault:      !f.IsBranch() && c.IsOutput(f.Net),
		GatesEvaluated: res.GatesEvaluated,
	}
}

// bridgingRecord analyzes one bridging fault (shared by the serial and
// work-stealing runners, like stuckAtRecord).
func bridgingRecord(e *diffprop.Engine, b faults.Bridging, toPO []int) BridgingRecord {
	c := e.Circuit
	res := e.Bridging(b)
	ub := e.BridgingUpperBound(b)
	a, ok := diffprop.Adherence(res.Detectability, ub)
	fed := map[int]bool{}
	for _, po := range c.POsFed(b.U) {
		fed[po] = true
	}
	for _, po := range c.POsFed(b.V) {
		fed[po] = true
	}
	dist := toPO[b.U]
	if toPO[b.V] > dist {
		dist = toPO[b.V]
	}
	return BridgingRecord{
		Fault:         b,
		Detectability: res.Detectability,
		UpperBound:    ub,
		Adherence:     a,
		AdherenceOK:   ok,
		ObservedPOs:   len(res.ObservedPOs),
		POsFed:        len(fed),
		MaxLevelsToPO: dist,
		ActsStuckAt:   e.BridgeActsStuckAt(b),
	}
}

// stuckAtHeader fills the study fields derived from the working circuit.
func stuckAtHeader(c *netlist.Circuit) StuckAtStudy {
	return StuckAtStudy{
		Circuit:     c.Name,
		NetlistSize: c.NumGates(),
		NumPIs:      len(c.Inputs),
		NumPOs:      len(c.Outputs),
	}
}

// bridgingHeader fills the study fields derived from the working circuit
// and the fault-set policy.
func bridgingHeader(c *netlist.Circuit, kind faults.BridgeKind, population int, sampled bool) BridgingStudy {
	return BridgingStudy{
		Circuit:     c.Name,
		Kind:        kind,
		NetlistSize: c.NumGates(),
		NumPIs:      len(c.Inputs),
		NumPOs:      len(c.Outputs),
		Sampled:     sampled,
		Population:  population,
	}
}

// RunStuckAt analyzes every fault in the set with exact Difference
// Propagation. Faults must refer to e.Circuit's net numbering. A fault
// whose analysis panics (or blows a budget armed via
// Engine.SetFaultBudget) poisons only its own record: the study carries a
// per-fault error (or degraded estimate) at that index and the remaining
// faults complete normally.
func RunStuckAt(e *diffprop.Engine, fs []faults.StuckAt) StuckAtStudy {
	c := e.Circuit
	toPO := c.MaxLevelsToPO()
	levels := c.Levels()
	fb := newFallback(0, 0)
	study := stuckAtHeader(c)
	study.Records = make([]StuckAtRecord, 0, len(fs))
	for _, f := range fs {
		rec, _ := analyzeStuckAt(e, f, toPO, levels, fb, nil, nil)
		study.Records = append(study.Records, rec)
	}
	return study
}

// RunBridging analyzes every bridging fault in the set. Panic isolation
// and budget degradation behave as in RunStuckAt.
func RunBridging(e *diffprop.Engine, bs []faults.Bridging, kind faults.BridgeKind, population int, sampled bool) BridgingStudy {
	c := e.Circuit
	toPO := c.MaxLevelsToPO()
	fb := newFallback(0, 0)
	study := bridgingHeader(c, kind, population, sampled)
	study.Records = make([]BridgingRecord, 0, len(bs))
	for _, b := range bs {
		rec, _ := analyzeBridging(e, b, toPO, fb, nil, nil)
		study.Records = append(study.Records, rec)
	}
	return study
}

// BridgingSet reproduces the paper's fault-set policy (§2.2): the entire
// potentially detectable NFBF population when it does not exceed
// maxFaults (as for the four smallest circuits), otherwise a
// layout-distance-weighted random sample of maxFaults faults with the
// exponential distribution parameter theta.
func BridgingSet(c *netlist.Circuit, kind faults.BridgeKind, maxFaults int, theta float64, seed int64) (set []faults.Bridging, population int, sampled bool) {
	all := faults.AllNFBFs(c, kind)
	population = len(all)
	if len(all) <= maxFaults {
		return all, population, false
	}
	return layout.SampleNFBFs(c, all, maxFaults, theta, seed), population, true
}

// Histogram bins the values of the [0,1] interval into `bins` equal-width
// buckets and returns each bucket's fraction of the total — the paper's
// "fault proportion" normalization. Values at 1.0 land in the last bin.
func Histogram(values []float64, bins int) []float64 {
	if bins <= 0 {
		panic(fmt.Sprintf("analysis: %d bins", bins))
	}
	out := make([]float64, bins)
	if len(values) == 0 {
		return out
	}
	for _, v := range values {
		i := int(v * float64(bins))
		if i >= bins {
			i = bins - 1
		}
		if i < 0 {
			i = 0
		}
		out[i]++
	}
	for i := range out {
		out[i] /= float64(len(values))
	}
	return out
}

// FaultError summarizes one isolated per-fault failure in a study.
type FaultError struct {
	Index int
	Fault string
	Err   string
}

func (e FaultError) String() string {
	return fmt.Sprintf("fault %d (%s): %s", e.Index, e.Fault, e.Err)
}

// Errors lists the faults whose analysis panicked, in index order. A
// non-empty result means the study is complete except at those indices.
func (s StuckAtStudy) Errors() []FaultError {
	var out []FaultError
	for i, r := range s.Records {
		if r.Err != "" {
			out = append(out, FaultError{Index: i, Fault: r.Fault.String(), Err: r.Err})
		}
	}
	return out
}

// Errors lists the faults whose analysis panicked, in index order.
func (s BridgingStudy) Errors() []FaultError {
	var out []FaultError
	for i, r := range s.Records {
		if r.Err != "" {
			out = append(out, FaultError{Index: i, Fault: r.Fault.String(), Err: r.Err})
		}
	}
	return out
}

// DegradedFault summarizes one fault whose exact analysis blew its budget
// and was re-scored by simulation.
type DegradedFault struct {
	Index int
	Fault string
	// Detectability is the simulation estimate over Vectors patterns.
	Detectability float64
	Vectors       int
}

func (d DegradedFault) String() string {
	return fmt.Sprintf("fault %d (%s): estimated detectability %.6f over %d vectors",
		d.Index, d.Fault, d.Detectability, d.Vectors)
}

// DegradedFaults lists the budget-degraded faults sorted by fault index.
// Records are index-aligned by construction, so the order is deterministic
// regardless of how the work-stealing workers interleaved.
func (s StuckAtStudy) DegradedFaults() []DegradedFault {
	var out []DegradedFault
	for i, r := range s.Records {
		if r.Approximate {
			out = append(out, DegradedFault{Index: i, Fault: r.Fault.String(), Detectability: r.Detectability, Vectors: r.EstimateVectors})
		}
	}
	return out
}

// DegradedFaults lists the budget-degraded bridging faults sorted by
// fault index (see StuckAtStudy.DegradedFaults).
func (s BridgingStudy) DegradedFaults() []DegradedFault {
	var out []DegradedFault
	for i, r := range s.Records {
		if r.Approximate {
			out = append(out, DegradedFault{Index: i, Fault: r.Fault.String(), Detectability: r.Detectability, Vectors: r.EstimateVectors})
		}
	}
	return out
}

// Detectabilities extracts the detectability of every fault in the study.
func (s StuckAtStudy) Detectabilities() []float64 {
	out := make([]float64, len(s.Records))
	for i, r := range s.Records {
		out[i] = r.Detectability
	}
	return out
}

// Detectabilities extracts the detectability of every fault in the study.
func (s BridgingStudy) Detectabilities() []float64 {
	out := make([]float64, len(s.Records))
	for i, r := range s.Records {
		out[i] = r.Detectability
	}
	return out
}

// Adherences extracts the adherence of every excitable fault.
func (s StuckAtStudy) Adherences() []float64 {
	var out []float64
	for _, r := range s.Records {
		if r.AdherenceOK {
			out = append(out, r.Adherence)
		}
	}
	return out
}

// Adherences extracts the adherence of every excitable fault.
func (s BridgingStudy) Adherences() []float64 {
	var out []float64
	for _, r := range s.Records {
		if r.AdherenceOK {
			out = append(out, r.Adherence)
		}
	}
	return out
}

// MeanDetectable returns the overall mean detectability of detectable
// faults — the solid line of Figures 2 and 7.
func (s StuckAtStudy) MeanDetectable() float64 {
	return meanDetectable(s.Detectabilities())
}

// MeanDetectable returns the overall mean detectability of detectable
// faults.
func (s BridgingStudy) MeanDetectable() float64 {
	return meanDetectable(s.Detectabilities())
}

func meanDetectable(ds []float64) float64 {
	sum, n := 0.0, 0
	for _, d := range ds {
		if d > 0 {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CoverageRate returns the fraction of faults with a non-empty test set.
func (s StuckAtStudy) CoverageRate() float64 {
	return coverageRate(s.Detectabilities())
}

// MeanGatesEvaluated reports the average number of chain steps (binary
// single-consumer gates and stem transfers) evaluated per fault before the
// fault reached its top (or its difference vanished).
func (s StuckAtStudy) MeanGatesEvaluated() float64 {
	if len(s.Records) == 0 {
		return 0
	}
	sum := 0
	for _, r := range s.Records {
		sum += r.GatesEvaluated
	}
	return float64(sum) / float64(len(s.Records))
}

// CoverageRate returns the fraction of faults with a non-empty test set.
func (s BridgingStudy) CoverageRate() float64 {
	return coverageRate(s.Detectabilities())
}

func coverageRate(ds []float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	n := 0
	for _, d := range ds {
		if d > 0 {
			n++
		}
	}
	return float64(n) / float64(len(ds))
}

// DistancePoint is one bucket of a detectability-versus-distance curve.
type DistancePoint struct {
	Distance int
	Mean     float64
	Count    int
}

// CurveByMaxLevelsToPO groups detectable faults by their maximum distance
// to a primary output and returns the per-bucket mean detectability —
// Figures 3 and 8.
func (s StuckAtStudy) CurveByMaxLevelsToPO() []DistancePoint {
	pts := map[int][]float64{}
	for _, r := range s.Records {
		if r.Detectable() && r.MaxLevelsToPO >= 0 {
			pts[r.MaxLevelsToPO] = append(pts[r.MaxLevelsToPO], r.Detectability)
		}
	}
	return curveFromBuckets(pts)
}

// CurveByMaxLevelsToPO groups detectable bridging faults by distance.
func (s BridgingStudy) CurveByMaxLevelsToPO() []DistancePoint {
	pts := map[int][]float64{}
	for _, r := range s.Records {
		if r.Detectable() && r.MaxLevelsToPO >= 0 {
			pts[r.MaxLevelsToPO] = append(pts[r.MaxLevelsToPO], r.Detectability)
		}
	}
	return curveFromBuckets(pts)
}

// CurveByLevelFromPI groups detectable faults by their level (distance
// from the primary inputs) — the controllability-side counterpart used in
// the §4.1 observability-versus-controllability discussion.
func (s StuckAtStudy) CurveByLevelFromPI() []DistancePoint {
	pts := map[int][]float64{}
	for _, r := range s.Records {
		if r.Detectable() {
			pts[r.LevelFromPI] = append(pts[r.LevelFromPI], r.Detectability)
		}
	}
	return curveFromBuckets(pts)
}

func curveFromBuckets(pts map[int][]float64) []DistancePoint {
	max := -1
	for d := range pts {
		if d > max {
			max = d
		}
	}
	var out []DistancePoint
	for d := 0; d <= max; d++ {
		vals := pts[d]
		if len(vals) == 0 {
			continue
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		out = append(out, DistancePoint{Distance: d, Mean: sum / float64(len(vals)), Count: len(vals)})
	}
	return out
}

// ObservedEqualsFedRate returns the fraction of detectable faults whose
// observable-PO count equals the fed-PO count — the paper's "these numbers
// are almost always the same" claim supporting closest-PO justification.
func (s StuckAtStudy) ObservedEqualsFedRate() float64 {
	eq, n := 0, 0
	for _, r := range s.Records {
		if !r.Detectable() {
			continue
		}
		n++
		if r.ObservedPOs == r.POsFed {
			eq++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(eq) / float64(n)
}

// StuckAtProportion returns the fraction of bridging faults classified as
// having stuck-at (constant) behavior — Figure 5's Y axis.
func (s BridgingStudy) StuckAtProportion() float64 {
	if len(s.Records) == 0 {
		return 0
	}
	n := 0
	for _, r := range s.Records {
		if r.ActsStuckAt {
			n++
		}
	}
	return float64(n) / float64(len(s.Records))
}

// Correlation returns the Pearson correlation coefficient of two equal-
// length series (NaN-free inputs assumed); used to quantify the paper's
// "detectability is better correlated with observability than with
// controllability" observation.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("analysis: correlation needs equal non-empty series")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
		vx += (xs[i] - mx) * (xs[i] - mx)
		vy += (ys[i] - my) * (ys[i] - my)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// ranks assigns average ranks (1-based, ties averaged) to the values.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			out[idx[k]] = avg
		}
		i = j
	}
	return out
}

// Spearman returns the Spearman rank correlation of two equal-length
// series (ties receive average ranks). Used to compare ordinal testability
// estimates (SCOAP costs) against exact detectabilities.
func Spearman(xs, ys []float64) float64 {
	return Correlation(ranks(xs), ranks(ys))
}

// PredictedRandomCoverage returns the expected fault coverage after n
// independent uniform random patterns, given each fault's exact detection
// probability: mean over faults of 1 - (1-p)^n. Faults with p = 0 are
// never covered and pull the ceiling below 1.
func PredictedRandomCoverage(ps []float64, n int) float64 {
	if len(ps) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range ps {
		sum += 1 - math.Pow(1-p, float64(n))
	}
	return sum / float64(len(ps))
}

// DetectabilityVsDistanceCorrelations returns the correlation of per-fault
// detectability with PO distance and with PI distance, over detectable
// faults.
func (s StuckAtStudy) DetectabilityVsDistanceCorrelations() (po, pi float64) {
	var ds, dpo, dpi []float64
	for _, r := range s.Records {
		if !r.Detectable() || r.MaxLevelsToPO < 0 {
			continue
		}
		ds = append(ds, r.Detectability)
		dpo = append(dpo, float64(r.MaxLevelsToPO))
		dpi = append(dpi, float64(r.LevelFromPI))
	}
	if len(ds) < 2 {
		return 0, 0
	}
	return Correlation(ds, dpo), Correlation(ds, dpi)
}
