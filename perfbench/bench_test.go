package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/faults"
)

// smallInputs is a serial workload over circuits small enough for tests:
// the stuck-at sets of c95s and alu181 and a 40-fault AND/OR bridging
// sample of c95s.
func smallInputs(t *testing.T, seed int64) *inputs {
	t.Helper()
	in := &inputs{}
	for _, name := range []string{"c95s", "alu181"} {
		c, work, err := prepare(name, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		in.campaigns = append(in.campaigns, campaign{label: name, name: name, circuit: c, work: work, sa: faults.CheckpointStuckAts(work)})
	}
	c, work, err := prepare("c95s", nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	in.addBridging("c95s", c, work, 40, bridgingTheta, seed, nil, -1)
	return in
}

func mustPass(t *testing.T, in *inputs, tr *tracer) *passOut {
	t.Helper()
	out, err := passSerial(in, tr, tr.begin(-1, spanPass, ""))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := w.setup(7, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.setup(7, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.campaigns, b.campaigns) || !reflect.DeepEqual(a.cfg, b.cfg) {
			t.Errorf("%s: seed 7 gave different inputs", w.name)
		}
	}
}

func TestOtherSeedOtherBridgingSamples(t *testing.T) {
	a, err := setupFigures(1, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupFigures(2, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for i, c := range a.campaigns {
		if !c.sampled {
			continue
		}
		sampled++
		if reflect.DeepEqual(c.bridges, b.campaigns[i].bridges) {
			t.Errorf("%s: seeds 1 and 2 drew the same sample", c.label)
		}
	}
	if sampled == 0 {
		t.Error("figures-quick samples no bridging population")
	}
}

func TestGoldenMatchesSmallCircuits(t *testing.T) {
	out := mustPass(t, smallInputs(t, 1), nil)
	if failed, attempted, msg := check(out, 1); failed != 0 || attempted == 0 {
		t.Fatalf("failed %d of %d: %s", failed, attempted, msg)
	}
}

func TestOraclesRejectPerturbedRecords(t *testing.T) {
	out := mustPass(t, smallInputs(t, 1), nil)

	sa := out.sa[0].s
	sa.Records[5].Detectability += 1.0 / 1024
	if n, _ := checkStuckAt(out.sa[0].name, sa); n != 1 {
		t.Errorf("perturbed detectability: %d mismatches, want 1", n)
	}
	sa.Records[5].Detectability -= 1.0 / 1024
	sa.Records[7].ObservedPOs++
	if n, _ := checkStuckAt(out.sa[0].name, sa); n != 1 {
		t.Errorf("perturbed observed POs: %d mismatches, want 1", n)
	}
	sa.Records[7].ObservedPOs--
	sa.Records[9].GatesEvaluated += 3 // an execution footprint, not a result
	if n, msg := checkStuckAt(out.sa[0].name, sa); n != 0 {
		t.Errorf("GatesEvaluated must not be compared: %s", msg)
	}
	sa.Records[11].Approximate = true
	if failed, _, _ := check(out, 1); failed != 1 {
		t.Errorf("degraded record: %d failed, want 1", failed)
	}
	sa.Records[11].Approximate = false

	bf := out.bf[0]
	big := -1
	for i, r := range bf.s.Records {
		if r.Detectability >= 0.1 && r.Detectability <= 0.8 {
			big = i
			break
		}
	}
	if big < 0 {
		t.Fatal("no record with detectability in [0.1, 0.8]")
	}
	orig := bf.s.Records[big].Detectability
	for _, p := range []float64{0, orig + 0.1} {
		bf.s.Records[big].Detectability = p
		if n, _ := checkBridging(bf.c.label, bf.c.work, bf.s, 1); n != 1 {
			t.Errorf("bridging detectability %g (true %g): %d mismatches, want 1", p, orig, n)
		}
	}
	bf.s.Records[big].Detectability = orig
	bf.s.Records[0].Fault = bf.s.Records[1].Fault
	if n := sameBridges(bf.c, bf.s); n != 1 {
		t.Errorf("swapped fault: %d mismatches, want 1", n)
	}
}

func TestBridgingBand(t *testing.T) {
	for _, c := range []struct {
		p    float64
		k    int
		want bool
	}{
		{0, 0, true}, {0, 1, false}, {1e-9, 0, true}, {1e-9, 1, true}, {1e-9, 3, false},
		{0.5, 2048, true}, {0.5, 2048 + 194, false}, {0.5, 2048 - 193, true}, {1, 4096, true},
	} {
		if got := bridgingBand(c.p, c.k, 4096); got != c.want {
			t.Errorf("bridgingBand(%g, %d) = %v, want %v", c.p, c.k, got, c.want)
		}
	}
}

func TestTracedRecordsMatchUntraced(t *testing.T) {
	in := smallInputs(t, 3)
	plain := mustPass(t, in, nil)
	traced := mustPass(t, in, newTracer())
	if n, msg := sameRecords(plain, traced); n != 0 {
		t.Fatal(msg)
	}
}

func TestSerialTracedCountersRepeat(t *testing.T) {
	in := smallInputs(t, 1)
	var counts [2]map[string]int64
	var peaks [2]int64
	for i := range counts {
		tr := newTracer()
		mustPass(t, in, tr)
		lt := tr.totals()
		counts[i], peaks[i] = lt.counts, lt.peak
	}
	for _, k := range []string{cntOps, cntGateEvals, cntApplyHits, cntApplyMisses, cntIteHits, cntNotHits, cntNodesLive, cntNodesReclaimed, cntTableNodes} {
		if counts[0][k] != counts[1][k] {
			t.Errorf("%s: %d then %d", k, counts[0][k], counts[1][k])
		}
	}
	if counts[0][cntOps] == 0 || peaks[0] == 0 || peaks[0] != peaks[1] {
		t.Errorf("ops %d, peak nodes %d then %d", counts[0][cntOps], peaks[0], peaks[1])
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if !name.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", kind, d.name)
			}
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: code %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in code, %d in BENCHMARK.json", len(workloads), len(spec.Workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: code %s, BENCHMARK.json %s", i, w.name, spec.Workloads[i].Name)
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "sa-serial", "-trace", "2"},
		{"-workload", "sa-serial", "-seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || strings.Contains(stdout.String(), "{") {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
