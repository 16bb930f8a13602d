package analysis

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
)

// serialStudies runs c95s's checkpoint stuck-at set and an OR bridging
// sample through one default engine, fault by fault: the reference every
// parallel campaign must reproduce.
func serialStudies(t *testing.T) (sa StuckAtStudy, fs []faults.StuckAt, bf BridgingStudy, bs []faults.Bridging, pop int, sampled bool) {
	t.Helper()
	c := circuits.MustGet("c95s")
	e, err := diffprop.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs = faults.CheckpointStuckAts(e.Circuit)
	sa = RunStuckAt(e, fs)
	bs, pop, sampled = BridgingSet(e.Circuit, faults.WiredOR, 60, 0.3, 7)
	bf = RunBridging(e, bs, faults.WiredOR, pop, sampled)
	return
}

// TestPrivateStoresMatchSerial runs campaigns at 1, 2 and 4 workers under
// a one-node rebuild limit, so every worker compacts its own store before
// every fault. Records depend only on canonical function semantics, never
// on node ids or on which store built them, so both fault models must
// come out identical to the serial reference.
func TestPrivateStoresMatchSerial(t *testing.T) {
	c := circuits.MustGet("c95s")
	sa, fs, bf, bs, pop, sampled := serialStudies(t)
	opts := &diffprop.Options{RebuildLimit: 1}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			par, err := RunStuckAtCampaign(c, opts, fs, CampaignConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if par.Stats.Workers != workers || par.Stats.Rebuilds < len(fs) {
				t.Fatalf("%d workers ran %d compactions for %d faults, want one per fault",
					par.Stats.Workers, par.Stats.Rebuilds, len(fs))
			}
			if !reflect.DeepEqual(stripStatsSA(par), stripStatsSA(sa)) {
				t.Fatal("stuck-at study differs from serial")
			}
			bpar, err := RunBridgingCampaign(c, opts, bs, faults.WiredOR, pop, sampled, CampaignConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if bpar.Stats.Rebuilds < len(bs) {
				t.Fatalf("%d compactions for %d bridging faults", bpar.Stats.Rebuilds, len(bs))
			}
			if !reflect.DeepEqual(stripStatsBF(bpar), stripStatsBF(bf)) {
				t.Fatal("bridging study differs from serial")
			}
		})
	}
}

// TestPrivateStoresUnderGovernorPressure repeats the run with the memory
// governor forced to park workers over and over: a parked worker
// compacts its own store (GCNow) while its siblings keep analyzing. The
// results must still be identical to the serial reference.
func TestPrivateStoresUnderGovernorPressure(t *testing.T) {
	c := circuits.MustGet("c95s")
	sa, fs, bf, bs, pop, sampled := serialStudies(t)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// The governor's monitor goroutine calls the sampler, and one
			// campaign's monitor may still be sampling when the next
			// campaign's governor takes its first sample.
			var n atomic.Int64
			cfg := CampaignConfig{
				Workers:  workers,
				MemLimit: 1 << 30,
				MemPoll:  time.Millisecond,
				memSample: func() int64 {
					// Alternate over/under the ceiling so workers park, wake,
					// and repeat. The first sample, taken before any worker
					// starts, is over, so every worker but the first parks at
					// its first claim.
					if n.Add(1)%2 == 1 {
						return 1 << 40
					}
					return 1
				},
				Recovery: diffprop.Recovery{NodeLimit: 1 << 22, SiftPasses: diffprop.DefaultSiftPasses},
			}
			opts := &diffprop.Options{RebuildLimit: 1}
			par, err := RunStuckAtCampaign(c, opts, fs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if workers > 1 && par.Stats.MemParkEvents == 0 {
				t.Fatal("the governor never parked a worker")
			}
			if !reflect.DeepEqual(stripStatsSA(par), stripStatsSA(sa)) {
				t.Fatal("governor pressure changed stuck-at results")
			}
			bpar, err := RunBridgingCampaign(c, opts, bs, faults.WiredOR, pop, sampled, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripStatsBF(bpar), stripStatsBF(bf)) {
				t.Fatal("governor pressure changed bridging results")
			}
		})
	}
}

// TestWorkersSplitRebuildLimit checks that each worker engine gets 1/N of
// the rebuild limit and of the recovery node watermark, so the campaign's
// node budget stays what a single engine had.
func TestWorkersSplitRebuildLimit(t *testing.T) {
	c := circuits.MustGet("c17")
	for _, tc := range []struct {
		opts            *diffprop.Options
		nodeLimit       int
		workers         int
		wantRebuild     int
		wantRecoveryCap int
	}{
		{nil, 0, 1, diffprop.DefaultRebuildLimit, 0},
		{nil, 0, 2, diffprop.DefaultRebuildLimit / 2, 0},
		{&diffprop.Options{RebuildLimit: 1000}, 800, 4, 250, 200},
		{&diffprop.Options{RebuildLimit: 3}, 2, 4, 1, 1},
	} {
		cfg := CampaignConfig{Recovery: diffprop.Recovery{NodeLimit: tc.nodeLimit}}
		engines, err := prepareEngines(c, tc.opts, tc.workers, &cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(engines) != tc.workers {
			t.Fatalf("%d engines for %d workers", len(engines), tc.workers)
		}
		for w, e := range engines {
			if e.RebuildLimit() != tc.wantRebuild || e.Recovery().NodeLimit != tc.wantRecoveryCap {
				t.Fatalf("%d workers, engine %d: rebuild limit %d, node watermark %d; want %d, %d",
					tc.workers, w, e.RebuildLimit(), e.Recovery().NodeLimit, tc.wantRebuild, tc.wantRecoveryCap)
			}
			if w > 0 && e.Manager() == engines[0].Manager() {
				t.Fatalf("engine %d shares the prototype's manager", w)
			}
		}
		if cfg.Recovery.NodeLimit != tc.wantRecoveryCap {
			t.Fatalf("campaign config carries watermark %d, want the split %d", cfg.Recovery.NodeLimit, tc.wantRecoveryCap)
		}
	}
}
