// Command bddbench benchmarks the BDD backend and the campaign runners
// that sit on it, emitting a machine-readable JSON report for CI trend
// tracking.
//
// Two layers are measured:
//
//   - Micro: apply (And), ITE, and SatCount throughput on randomized
//     functions over a single manager — the raw cost of the
//     complement-edge node store and its operation cache. And and ITE are
//     reported per top-level call and per charged ITE step, the unit of
//     BDD work every budget counts.
//   - Campaign: a stuck-at mini-campaign on a chosen circuit, run at one
//     worker and at -workers N, each worker on its own BDD store, and
//     compared on throughput, peak heap and charged ITE steps per fault.
//
// Usage:
//
//	bddbench                              # defaults: c1908s, 4 workers
//	bddbench -circuit c1355s -workers 8 -max 120 -out BENCH_bdd.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// report is the schema of the emitted JSON.
type report struct {
	Circuit   string  `json:"circuit"`
	Workers   int     `json:"workers"`
	Faults    int     `json:"faults"`
	GoVersion string  `json:"go_version"`
	NumCPU    int     `json:"num_cpu"`
	Micro     micro   `json:"micro"`
	Serial    campRun `json:"serial"`
	Parallel  campRun `json:"parallel"`
	// Speedup is serial wall / parallel wall (>1 means the workers pay
	// off); HeapRatio is parallel peak heap / serial peak heap.
	Speedup   float64 `json:"speedup"`
	HeapRatio float64 `json:"heap_ratio"`
}

type micro struct {
	ApplyNsPerOp    float64 `json:"apply_ns_per_op"`
	ApplyNsPerStep  float64 `json:"apply_ns_per_step"`
	IteNsPerOp      float64 `json:"ite_ns_per_op"`
	IteNsPerStep    float64 `json:"ite_ns_per_step"`
	SatCountNsPerOp float64 `json:"satcount_ns_per_op"`
}

type campRun struct {
	Workers       int     `json:"workers"`
	WallMs        float64 `json:"wall_ms"`
	FaultsPerSec  float64 `json:"faults_per_sec"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
	OpsPerFault   float64 `json:"ops_per_fault"`
	PeakNodes     int     `json:"peak_nodes"`
	Rebuilds      int     `json:"rebuilds"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
}

func main() {
	var (
		circuit = flag.String("circuit", "c1908s", "benchmark circuit name")
		workers = flag.Int("workers", 4, "campaign worker count")
		maxF    = flag.Int("max", 80, "cap on the stuck-at fault set (0 = all)")
		out     = flag.String("out", "BENCH_bdd.json", "output JSON path (- for stdout)")
	)
	flag.Parse()

	rep := report{
		Circuit:   *circuit,
		Workers:   *workers,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
	rep.Micro = microBench()

	c := circuits.MustGet(*circuit)
	fs := faults.CheckpointStuckAts(c.Decompose2())
	if *maxF > 0 && len(fs) > *maxF {
		fs = fs[:*maxF]
	}
	rep.Faults = len(fs)

	rep.Serial = campaignBench(c, fs, 1)
	rep.Parallel = campaignBench(c, fs, *workers)
	if rep.Parallel.WallMs > 0 {
		rep.Speedup = rep.Serial.WallMs / rep.Parallel.WallMs
	}
	if rep.Serial.PeakHeapBytes > 0 {
		rep.HeapRatio = float64(rep.Parallel.PeakHeapBytes) / float64(rep.Serial.PeakHeapBytes)
	}

	fmt.Fprintf(os.Stderr,
		"bddbench %s faults=%d: 1 worker %.1f faults/s (peak %s, %.0f ops/fault), %d workers %.1f faults/s (peak %s, %.0f ops/fault) -> speedup %.2fx, heap ratio %.2fx; And %.1f ns/step, ITE %.1f ns/step\n",
		*circuit, rep.Faults,
		rep.Serial.FaultsPerSec, fmtBytes(rep.Serial.PeakHeapBytes), rep.Serial.OpsPerFault,
		rep.Parallel.Workers, rep.Parallel.FaultsPerSec, fmtBytes(rep.Parallel.PeakHeapBytes), rep.Parallel.OpsPerFault,
		rep.Speedup, rep.HeapRatio, rep.Micro.ApplyNsPerStep, rep.Micro.IteNsPerStep)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// microBench measures raw backend operation cost on randomized minterm
// functions: the per-call amortized cost of And, Ite, and SatCount
// including cache effects, which is how campaigns actually use them. A
// top-level And of 20-variable functions runs hundreds of ITE steps, so
// And and Ite are also reported per step charged to the manager.
func microBench() micro {
	const (
		vars   = 20
		funcs  = 64
		cubes  = 24
		rounds = 4
	)
	m := bdd.NewAnon(vars)
	rng := rand.New(rand.NewSource(1))
	fn := make([]bdd.Ref, funcs)
	for i := range fn {
		acc := bdd.False
		for j := 0; j < cubes; j++ {
			cube := bdd.True
			for v := 0; v < vars; v++ {
				if rng.Intn(2) == 1 {
					cube = m.And(cube, m.Var(v))
				} else {
					cube = m.And(cube, m.NVar(v))
				}
			}
			acc = m.Or(acc, cube)
		}
		fn[i] = acc
	}

	// timed runs op over every (round, function) pair and returns the ns
	// per call and per charged ITE step.
	timed := func(op func(r, i int)) (perOp, perStep float64) {
		m.ClearBudget() // zeroes the charge meter
		calls := 0
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for i := 0; i < funcs; i++ {
				op(r, i)
				calls++
			}
		}
		ns := float64(time.Since(t0).Nanoseconds())
		return ns / float64(calls), ns / float64(max(m.OpsCharged(), 1))
	}
	var mi micro
	mi.ApplyNsPerOp, mi.ApplyNsPerStep = timed(func(r, i int) {
		m.And(fn[i], fn[(i+1+r)%funcs])
	})
	mi.IteNsPerOp, mi.IteNsPerStep = timed(func(r, i int) {
		m.Ite(fn[i], fn[(i+1+r)%funcs], fn[(i+2+r)%funcs])
	})
	mi.SatCountNsPerOp, _ = timed(func(_, i int) { m.SatCount(fn[i]) })
	return mi
}

// campaignBench runs one stuck-at campaign and reports wall clock, the
// peak live heap observed by a high-frequency sampler (HeapAlloc tracks
// the node chunks and caches directly) and the ITE steps charged per
// fault, read from the campaign's flight recorder. The heap is
// garbage-collected to a common baseline first so one run's leftovers
// cannot inflate the next one's peak.
func campaignBench(c *netlist.Circuit, fs []faults.StuckAt, workers int) campRun {
	runtime.GC()
	var peak atomic.Uint64
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		var ms runtime.MemStats
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()

	flight := obs.NewFlightRecorder(0)
	t0 := time.Now()
	study, err := analysis.RunStuckAtCampaign(c, nil, fs, analysis.CampaignConfig{
		Workers: workers,
		Obs:     &obs.Observer{Flight: flight},
	})
	wall := time.Since(t0)
	close(stopSampler)
	<-samplerDone
	if err != nil {
		fatal(err)
	}
	if _, dropped := flight.Total(); dropped > 0 {
		fatal(fmt.Errorf("flight recorder dropped %d events; ops per fault would be short", dropped))
	}
	var ops int64
	for _, ev := range flight.Snapshot() {
		if ev.Kind == "fault" {
			ops += ev.B
		}
	}
	st := study.Stats
	run := campRun{
		Workers:       st.Workers,
		WallMs:        float64(wall.Microseconds()) / 1e3,
		PeakHeapBytes: peak.Load(),
		OpsPerFault:   float64(ops) / float64(max(len(fs), 1)),
		PeakNodes:     st.PeakNodes,
		Rebuilds:      st.Rebuilds,
		CacheHitRate:  st.Cache.HitRate(),
	}
	if wall > 0 {
		run.FaultsPerSec = float64(len(fs)) / wall.Seconds()
	}
	return run
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bddbench:", err)
	os.Exit(1)
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
