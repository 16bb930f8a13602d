package analysis

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/obs"
)

// TestStatsAggregationMerge pins the one merge rule for combining
// per-engine stats: folding N engines' counters into CampaignStats via
// add must equal Merge-summing them into a single diffprop.Stats.
func TestStatsAggregationMerge(t *testing.T) {
	parts := []diffprop.Stats{
		{Analyses: 3, GateEvaluations: 100, RootPropagations: 2, Transfers: 6, Rebuilds: 1, PeakNodes: 500},
		{Analyses: 5, GateEvaluations: 250, RootPropagations: 4, Transfers: 0, Rebuilds: 0, PeakNodes: 900},
		{Analyses: 2, GateEvaluations: 75, RootPropagations: 1, Transfers: 3, Rebuilds: 4, PeakNodes: 120},
	}
	parts[0].Cache.ApplyHits, parts[0].Cache.ApplyMisses = 10, 20
	parts[1].Cache.IteHits, parts[1].Cache.NotMisses = 7, 3
	parts[2].Cache.ApplyHits, parts[2].Cache.NotHits = 1, 9

	var want diffprop.Stats
	for _, p := range parts {
		want.Merge(p)
	}
	var cs CampaignStats
	for _, p := range parts {
		cs.add(p)
	}
	got := cs.EngineStats()
	if got.GateEvaluations != want.GateEvaluations || got.RootPropagations != want.RootPropagations ||
		got.Transfers != want.Transfers || got.Rebuilds != want.Rebuilds ||
		got.PeakNodes != want.PeakNodes || got.Cache != want.Cache {
		t.Fatalf("CampaignStats.add diverged from diffprop.Stats.Merge:\n got %+v\nwant %+v", got, want)
	}
	if got.PeakNodes != 900 {
		t.Fatalf("PeakNodes = %d, want the max (900), not a sum", got.PeakNodes)
	}
}

// TestParallelStatsEqualSumOfEngines checks the aggregation end to end: a
// parallel campaign's GateEvaluations total must equal the sum of the
// per-fault work recorded in the (engine-produced) records.
func TestParallelStatsEqualSumOfEngines(t *testing.T) {
	c := circuits.MustGet("c95s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, r := range study.Records {
		sum += int64(r.GatesEvaluated)
	}
	if study.Stats.GateEvaluations != sum {
		t.Fatalf("campaign GateEvaluations = %d, want the per-record sum %d",
			study.Stats.GateEvaluations, sum)
	}
	if study.Stats.PeakNodes == 0 || study.Stats.Workers != 4 {
		t.Fatalf("engine counters not aggregated: %+v", study.Stats)
	}
}

// TestBridgingCampaignFactored checks that bridging campaigns run through
// the post-dominator chain: one engine query per bridge, served by cached
// top observabilities that the counters report.
func TestBridgingCampaignFactored(t *testing.T) {
	c := circuits.MustGet("c432s")
	e, err := diffprop.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, pop, sampled := BridgingSet(e.Circuit, faults.WiredAND, 300, 0.3, 7)
	RunBridging(e, set, faults.WiredAND, pop, sampled)
	if s := e.Stats(); s.Analyses != len(set) || s.RootPropagations == 0 {
		t.Fatalf("serial engine: %d analyses, %d root propagations for %d bridges", s.Analyses, s.RootPropagations, len(set))
	}
	study, err := RunBridgingCampaign(c, nil, set, faults.WiredAND, pop, sampled, CampaignConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := study.Stats; s.Faults != len(set) || s.RootPropagations == 0 ||
		!strings.Contains(s.String(), fmt.Sprintf("root-props=%d transfers=%d", s.RootPropagations, s.Transfers)) {
		t.Fatalf("serial campaign over %d bridges: %v", len(set), s)
	}
}

// TestErrorsAndDegradedDeterministicOrder injects two panicking faults
// into a 4-worker budgeted campaign and checks that Errors() and
// DegradedFaults() come back sorted by fault index, identically across
// repeated runs, regardless of worker interleaving.
func TestErrorsAndDegradedDeterministicOrder(t *testing.T) {
	c := circuits.MustGet("c95s")
	work := c.Decompose2()
	fs := faults.CheckpointStuckAts(work)
	bad := faults.StuckAt{Net: work.NumNets() + 41, Gate: -1, Pin: -1}
	lo, hi := len(fs)/4, 3*len(fs)/4
	fs = append(fs[:lo:lo], append([]faults.StuckAt{bad}, append(fs[lo:hi:hi], append([]faults.StuckAt{bad}, fs[hi:]...)...)...)...)

	var prevErrs []FaultError
	for run := 0; run < 3; run++ {
		study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 4, FaultOps: 200})
		if err != nil {
			t.Fatal(err)
		}
		errs := study.Errors()
		if len(errs) != 2 || errs[0].Index != lo || errs[1].Index != hi+1 {
			t.Fatalf("run %d: errors %v, want indices %d and %d", run, errs, lo, hi+1)
		}
		// Which faults blow a mid-range op budget depends on cache warmth
		// and hence on scheduling; the guarantee under test is the ORDER —
		// both lists sorted by fault index — not the degraded membership.
		deg := study.DegradedFaults()
		if len(deg) == 0 {
			t.Fatalf("run %d: a 200-op budget degraded nothing", run)
		}
		if !sort.SliceIsSorted(deg, func(a, b int) bool { return deg[a].Index < deg[b].Index }) {
			t.Fatalf("run %d: DegradedFaults not sorted by index", run)
		}
		if run > 0 {
			for i := range errs {
				if errs[i] != prevErrs[i] {
					t.Fatalf("run %d: error %d differs: %v vs %v", run, i, errs[i], prevErrs[i])
				}
			}
		}
		prevErrs = errs
	}
}

// TestCanceledCampaignHeartbeat cancels a 4-worker campaign mid-run and
// checks the /progress heartbeat: canceled=true, finished=true, and every
// partial count reconciling exactly with the returned CampaignStats.
func TestCanceledCampaignHeartbeat(t *testing.T) {
	c := circuits.MustGet("c95s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{
		Workers: 4,
		Context: ctx,
		Obs:     o,
		Progress: func(done, total int) {
			if done >= total/3 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !study.Stats.Canceled {
		t.Fatal("campaign was not canceled")
	}
	if study.Stats.Faults == 0 || study.Stats.Faults == len(fs) {
		t.Fatalf("want a partial campaign, analyzed %d/%d", study.Stats.Faults, len(fs))
	}

	srv := httptest.NewServer(obs.NewMux(o))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.ProgressSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Campaigns) != 1 {
		t.Fatalf("heartbeats = %d, want 1", len(snap.Campaigns))
	}
	hb := snap.Campaigns[0]
	if !hb.Canceled || !hb.Finished {
		t.Fatalf("heartbeat not sealed as canceled: %+v", hb)
	}
	if hb.Analyzed != int64(study.Stats.Faults) ||
		hb.Degraded != int64(study.Stats.Degraded) ||
		hb.Errored != int64(study.Stats.Errored) ||
		hb.Resumed != int64(study.Stats.Resumed) {
		t.Fatalf("heartbeat %+v does not reconcile with stats %+v", hb, study.Stats)
	}
	if hb.Done+hb.Skipped != int64(len(fs)) {
		t.Fatalf("done %d + skipped %d != total %d", hb.Done, hb.Skipped, len(fs))
	}
	skipped := 0
	for _, r := range study.Records {
		if r.Skipped {
			skipped++
		}
	}
	if hb.Skipped != int64(skipped) {
		t.Fatalf("heartbeat skipped = %d, study has %d Skipped records", hb.Skipped, skipped)
	}
}

// TestHeartbeatReconciliationWithResume runs a full campaign seeded with
// checkpoint-restored records and checks the final heartbeat and metric
// counters against CampaignStats.
func TestHeartbeatReconciliationWithResume(t *testing.T) {
	c := circuits.MustGet("c95s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	first, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	resume := map[int]json.RawMessage{}
	for i := 0; i < 5; i++ {
		raw, err := json.Marshal(first.Records[i])
		if err != nil {
			t.Fatal(err)
		}
		resume[i] = raw
	}

	o := &obs.Observer{Metrics: obs.NewRegistry()}
	study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 4, Obs: o, Resume: resume})
	if err != nil {
		t.Fatal(err)
	}
	if study.Stats.Resumed != 5 || study.Stats.Faults != len(fs)-5 {
		t.Fatalf("stats %+v", study.Stats)
	}
	hb := o.Campaigns()[0].Snapshot()
	if hb.Done != int64(len(fs)) || hb.Resumed != 5 || hb.Skipped != 0 || hb.Canceled {
		t.Fatalf("heartbeat %+v", hb)
	}
	if hb.Analyzed != int64(study.Stats.Faults) {
		t.Fatalf("heartbeat analyzed %d, stats %d", hb.Analyzed, study.Stats.Faults)
	}
	cm := o.CampaignMetrics()
	if cm.FaultsDone.Value() != int64(len(fs)) {
		t.Fatalf("campaign_faults_done_total = %d, want %d", cm.FaultsDone.Value(), len(fs))
	}
	if cm.FaultsExact.Value() != int64(study.Stats.Faults-study.Stats.Degraded-study.Stats.Errored) {
		t.Fatalf("campaign_faults_exact_total = %d", cm.FaultsExact.Value())
	}
	if cm.GateEvaluations.Value() != study.Stats.GateEvaluations {
		t.Fatalf("campaign_gate_evaluations_total = %d, stats %d",
			cm.GateEvaluations.Value(), study.Stats.GateEvaluations)
	}
	if got := cm.FaultLatency.Count(); got != int64(study.Stats.Faults) {
		t.Fatalf("latency histogram holds %d observations, want %d", got, study.Stats.Faults)
	}
	if cm.CampaignsRunning.Value() != 0 {
		t.Fatalf("campaigns_running = %d after finish", cm.CampaignsRunning.Value())
	}
}

// TestTracedCampaignSpans runs a traced campaign and checks one span per
// analyzed fault with a valid outcome label.
func TestTracedCampaignSpans(t *testing.T) {
	c := circuits.MustGet("c95s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	tr := obs.NewTracer(io.Discard, obs.FormatJSONL)
	o := &obs.Observer{Tracer: tr}
	study, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 3, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != int64(study.Stats.Faults) {
		t.Fatalf("tracer recorded %d spans, campaign analyzed %d faults", tr.Events(), study.Stats.Faults)
	}
}

// TestObsOffHotPathAllocs pins the acceptance criterion directly: with
// observability off (a nil campaignInstr), the per-fault instrumentation
// hooks must not allocate — or read the clock — at all.
func TestObsOffHotPathAllocs(t *testing.T) {
	e, err := diffprop.New(circuits.MustGet("c17"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var in *campaignInstr
	allocs := testing.AllocsPerRun(1000, func() {
		t0 := in.faultStart()
		in.faultDone(e, 0, 0, outcomeExact, t0)
		in.workerClaim(0, 0, 1)
		if in.ladderHook(0, 0) != nil {
			t.Error("disabled ladderHook returned a closure")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocated %.1f times per fault, want 0", allocs)
	}
	if t0 := in.faultStart(); !t0.IsZero() {
		t.Fatal("disabled faultStart read the clock")
	}
}

// benchCampaign runs one stuck-at campaign for the benchmark pair below.
func benchCampaign(b *testing.B, o *obs.Observer) {
	b.Helper()
	c := circuits.MustGet("c95s")
	fs := faults.CheckpointStuckAts(c.Decompose2())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunStuckAtCampaign(c, nil, fs, CampaignConfig{Workers: 2, Obs: o}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignObsOff is the baseline the CI benchmark guard compares
// against BenchmarkCampaignTraced (observability fully on).
func BenchmarkCampaignObsOff(b *testing.B) { benchCampaign(b, nil) }

func BenchmarkCampaignTraced(b *testing.B) {
	o := &obs.Observer{
		Metrics: obs.NewRegistry(),
		Tracer:  obs.NewTracer(io.Discard, obs.FormatJSONL),
	}
	benchCampaign(b, o)
}
