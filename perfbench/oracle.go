package main

import (
	"bufio"
	"embed"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/simulate"
)

// The stuck-at golden: per-fault results of the complete collapsed
// checkpoint set of every catalog circuit and of X7's re-minimized c1355s,
// one file per circuit. Regenerate with -regen-golden.
//
//go:embed golden/*.txt
var goldenFS embed.FS

// optimizedC1355 names the re-minimized c1355s X7 analyzes.
const optimizedC1355 = "c1355s.Optimize()"

// goldenCircuit returns the circuit a golden file describes, as the
// campaigns receive it (before Decompose2).
func goldenCircuit(name string) (*netlist.Circuit, error) {
	if name == optimizedC1355 {
		c, err := circuits.Get("c1355s")
		if err != nil {
			return nil, err
		}
		opt := c.Optimize()
		opt.Name = optimizedC1355
		return opt, nil
	}
	return circuits.Get(name)
}

// goldenNames lists every circuit the golden covers.
func goldenNames() []string {
	return append(circuits.Names(), optimizedC1355)
}

// goldenFile maps a circuit name to its file name.
func goldenFile(name string) string {
	if name == optimizedC1355 {
		return "golden/c1355s-optimized.txt"
	}
	return "golden/" + name + ".txt"
}

// goldenStudy is a golden file: the study header and one record per fault.
// Only result fields are kept; GatesEvaluated and Stats are execution
// footprints a faster algorithm may legitimately change.
type goldenStudy struct {
	Gates, PIs, POs int
	Records         []analysis.StuckAtRecord
}

var goldenCache = map[string]*goldenStudy{}

// loadGolden returns the embedded golden study of a circuit.
func loadGolden(name string) (*goldenStudy, error) {
	if g, ok := goldenCache[name]; ok {
		return g, nil
	}
	f, err := goldenFS.Open(goldenFile(name))
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w", name, err)
	}
	defer f.Close()
	g, err := readGolden(f)
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w", name, err)
	}
	goldenCache[name] = g
	return g, nil
}

// Golden line format, space separated:
//
//	net gate pin stuck detectability upper adherence adherenceOK observedPOs posFed maxLevelsToPO levelFromPI isPOFault
//
// after one header line "# gates pis pos". Floats round-trip exactly.
func writeGolden(w io.Writer, s analysis.StuckAtStudy) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d %d %d\n", s.NetlistSize, s.NumPIs, s.NumPOs)
	fl := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	b := func(x bool) int {
		if x {
			return 1
		}
		return 0
	}
	for _, r := range s.Records {
		f := r.Fault
		fmt.Fprintf(bw, "%d %d %d %d %s %s %s %d %d %d %d %d %d\n",
			f.Net, f.Gate, f.Pin, b(f.Stuck), fl(r.Detectability), fl(r.UpperBound), fl(r.Adherence),
			b(r.AdherenceOK), r.ObservedPOs, r.POsFed, r.MaxLevelsToPO, r.LevelFromPI, b(r.IsPOFault))
	}
	return bw.Flush()
}

func readGolden(r io.Reader) (*goldenStudy, error) {
	sc := bufio.NewScanner(r)
	g := &goldenStudy{}
	if !sc.Scan() {
		return nil, fmt.Errorf("empty file")
	}
	if _, err := fmt.Sscanf(sc.Text(), "# %d %d %d", &g.Gates, &g.PIs, &g.POs); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	for line := 2; sc.Scan(); line++ {
		fs := strings.Fields(sc.Text())
		if len(fs) != 13 {
			return nil, fmt.Errorf("line %d: %d fields, want 13", line, len(fs))
		}
		var n [13]float64
		for i, s := range fs {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			n[i] = v
		}
		g.Records = append(g.Records, analysis.StuckAtRecord{
			Fault:         faults.StuckAt{Net: int(n[0]), Gate: int(n[1]), Pin: int(n[2]), Stuck: n[3] == 1},
			Detectability: n[4],
			UpperBound:    n[5],
			Adherence:     n[6],
			AdherenceOK:   n[7] == 1,
			ObservedPOs:   int(n[8]),
			POsFed:        int(n[9]),
			MaxLevelsToPO: int(n[10]),
			LevelFromPI:   int(n[11]),
			IsPOFault:     n[12] == 1,
		})
	}
	return g, sc.Err()
}

// resultFields blanks a record's execution footprint, leaving the fields
// the golden pins.
func resultFields(r analysis.StuckAtRecord) analysis.StuckAtRecord {
	r.GatesEvaluated = 0
	return r
}

// checkStuckAt compares a study with the golden of its circuit and returns
// the number of mismatching records (a missing or extra record counts as
// one each) plus a description of the first mismatch.
func checkStuckAt(name string, s *analysis.StuckAtStudy) (int, string) {
	g, err := loadGolden(name)
	if err != nil {
		return max(1, len(s.Records)), err.Error()
	}
	bad, first := 0, ""
	note := func(msg string) {
		bad++
		if first == "" {
			first = fmt.Sprintf("%s: %s", name, msg)
		}
	}
	if s.NetlistSize != g.Gates || s.NumPIs != g.PIs || s.NumPOs != g.POs {
		note(fmt.Sprintf("header %d/%d/%d, golden %d/%d/%d", s.NetlistSize, s.NumPIs, s.NumPOs, g.Gates, g.PIs, g.POs))
	}
	if len(s.Records) != len(g.Records) {
		note(fmt.Sprintf("%d records, golden %d", len(s.Records), len(g.Records)))
		bad += max(len(s.Records), len(g.Records)) - min(len(s.Records), len(g.Records)) - 1
	}
	for i := range min(len(s.Records), len(g.Records)) {
		if r := s.Records[i]; r.Err != "" || r.Approximate || r.Skipped {
			continue // counted as failed by the caller
		}
		if got := resultFields(s.Records[i]); got != g.Records[i] {
			note(fmt.Sprintf("record %d: got %+v, golden %+v", i, got, g.Records[i]))
		}
	}
	return bad, first
}

// Bridging oracle. The DP detectability p of each record is compared with
// the detections k bit-parallel simulation finds among n seeded random
// patterns: p = 0 must give k = 0, and otherwise k must lie within
// bridgingZ binomial standard deviations (plus one pattern of slack) of
// n·p. At z = 6 a correct record falls outside with probability ~1e-9.
const (
	oraclePatterns = 4096
	bridgingZ      = 6.0
)

// bridgingBand reports whether k detections out of n patterns are
// consistent with detectability p.
func bridgingBand(p float64, k, n int) bool {
	if p == 0 {
		return k == 0
	}
	mean := float64(n) * p
	return math.Abs(float64(k)-mean) <= bridgingZ*math.Sqrt(mean*(1-p))+1
}

// checkBridging runs the oracle over a study whose faults refer to work
// (the decomposed circuit) and returns the mismatch count and the first
// mismatch.
func checkBridging(label string, work *netlist.Circuit, s *analysis.BridgingStudy, seed int64) (int, string) {
	pats := simulate.Random(len(work.Inputs), oraclePatterns, seed)
	bad, first := 0, ""
	for i, r := range s.Records {
		if r.Err != "" || r.Approximate || r.Skipped {
			continue // counted as failed by the caller
		}
		k := simulate.CountBits(simulate.DetectBridging(work, r.Fault, pats))
		if !bridgingBand(r.Detectability, k, oraclePatterns) {
			bad++
			if first == "" {
				first = fmt.Sprintf("%s: record %d (%v): detectability %g, simulation %d/%d",
					label, i, r.Fault, r.Detectability, k, oraclePatterns)
			}
		}
	}
	return bad, first
}

// regenerateGolden reruns every golden circuit's checkpoint campaign and
// rewrites the golden files under dir. Before writing, the four circuits
// small enough for exhaustive simulation are validated against it.
func regenerateGolden(dir string, log io.Writer) error {
	exhaustive := map[string]bool{"c17": true, "fadd": true, "c95s": true, "alu181": true}
	for _, name := range goldenNames() {
		c, err := goldenCircuit(name)
		if err != nil {
			return err
		}
		work := c.Decompose2()
		fs := faults.CheckpointStuckAts(work)
		s, err := analysis.RunStuckAtCampaign(c, nil, fs, analysis.CampaignConfig{Workers: 2})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for i, r := range s.Records {
			if r.Err != "" || r.Approximate || r.Skipped {
				return fmt.Errorf("%s: record %d is not exact", name, i)
			}
			if exhaustive[name] {
				if want := simulate.ExhaustiveDetectabilityStuckAt(work, r.Fault); math.Abs(want-r.Detectability) > 1e-12 {
					return fmt.Errorf("%s: record %d (%v): DP %g, exhaustive simulation %g", name, i, r.Fault, r.Detectability, want)
				}
			}
		}
		path := filepath.Join(dir, filepath.Base(goldenFile(name)))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := writeGolden(f, s); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(log, "%s: %d faults in %v\n", path, len(s.Records), s.Stats.Elapsed)
	}
	return nil
}

func notExact(rs []analysis.StuckAtRecord) int {
	n := 0
	for _, r := range rs {
		if r.Err != "" || r.Approximate || r.Skipped {
			n++
		}
	}
	return n
}

func notExactBridging(rs []analysis.BridgingRecord) int {
	n := 0
	for _, r := range rs {
		if r.Err != "" || r.Approximate || r.Skipped {
			n++
		}
	}
	return n
}

// sameBridges counts the records whose fault is not the workload's fault
// at the same index.
func sameBridges(c *campaign, s *analysis.BridgingStudy) int {
	got := make([]faults.Bridging, len(s.Records))
	for i, r := range s.Records {
		got[i] = r.Fault
	}
	return differing(got, c.bridges)
}

// checkX7 checks X7's re-minimized c1355s row, the one campaign the
// exhibit keeps to itself, against the golden: gate and fault counts and
// the mean detectabilities as printed. It returns the row's fault count
// and a failure message, empty when the row matches.
func checkX7(t *report.Table) (int, string) {
	g, err := loadGolden(optimizedC1355)
	if err != nil {
		return 1, err.Error()
	}
	s := analysis.StuckAtStudy{NumPOs: g.POs, Records: g.Records}
	want := []string{
		"c1355s re-minimized",
		strconv.Itoa(g.Gates),
		strconv.Itoa(len(g.Records)),
		fmt.Sprintf("%.4f", s.MeanDetectable()),
		fmt.Sprintf("%.5f", s.MeanDetectable()/float64(g.POs)),
	}
	if len(t.Rows) != 3 || !slices.Equal(t.Rows[2], want) {
		return len(g.Records), fmt.Sprintf("x7: rows %q, want last row %q", t.Rows, want)
	}
	return len(g.Records), ""
}
