// Command figures regenerates every table and figure of the paper's
// evaluation section (Table 1, Figures 1-8) and the quantified prose
// claims (X1-X4) as plain-text reports and optional CSV files.
//
// Usage:
//
//	figures                         # everything, paper-scale configuration
//	figures -quick                  # small circuits, small samples (smoke run)
//	figures -fig fig3               # one exhibit
//	figures -csv out/               # also write one CSV per exhibit
//	figures -maxbfs 200 -seed 7     # tune the bridging fault sampling
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/diffprop"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
)

// shutdownObs flushes the trace file, stops the timeline sampler and the
// debug server; dumpFlight writes the -flight post-mortem dump. Both are
// armed by setupObs, idempotent, and no-ops when their flags are unset
// (fatal exits through os.Exit, so defers cannot be relied on).
var (
	shutdownObs = func() {}
	dumpFlight  = func(reason string) {}
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "use the small smoke-test configuration")
		figID      = flag.String("fig", "all", "exhibit to produce: table1, fig1..fig8, x1..x4, or all")
		csvDir     = flag.String("csv", "", "directory to write per-exhibit CSV files into")
		maxBFs     = flag.Int("maxbfs", 0, "override the bridging fault sample ceiling")
		seed       = flag.Int64("seed", 0, "override the sampling seed")
		theta      = flag.Float64("theta", 0, "override the exponential distance parameter")
		bins       = flag.Int("bins", 0, "override the histogram bin count")
		circuits   = flag.String("circuits", "", "comma-separated circuit list for the trend figures")
		workers    = flag.Int("workers", 0, "parallel analysis workers per campaign (0 = one per CPU)")
		verbose    = flag.Bool("v", false, "stream per-campaign progress and runtime stats to stderr")
		budget     = flag.Int64("budget", 0, "per-fault BDD operation budget (0 = unlimited); blown faults degrade to simulation estimates")
		timeout    = flag.Duration("timeout", 0, "per-fault wall-clock budget (0 = unlimited)")
		nodeLimit  = flag.Int("nodelimit", 0, "per-fault BDD node-count watermark (0 = unlimited); a tripped analysis enters the recovery ladder")
		gcAuto     = flag.Bool("gcauto", false, "enable recovery sifting when post-GC node counts still exceed -nodelimit (defaults -nodelimit to 1Mi nodes if unset)")
		retryMult  = flag.Float64("retrybudget", 0, "retry a blown fault once under its budgets scaled by this multiplier before degrading (<=1 disables)")
		memLimit   = flag.String("memlimit", "", "per-campaign heap ceiling, e.g. 2GiB: park workers near it instead of OOMing (empty = GOMEMLIMIT if set; off = never)")
		calibrate  = flag.Bool("calibrate", false, "self-calibrate each campaign's per-fault budget and retry ladder from the circuit's measured op-cost distribution")
		httpAddr   = flag.String("http", "", "serve the debug endpoints (/metrics, /progress, /debug/pprof) on this address, e.g. :6060")
		logLevel   = flag.String("log", "", "structured logging level on stderr: debug, info, warn, error (empty = off)")
		logJSON    = flag.Bool("logjson", false, "emit structured logs as JSON instead of logfmt text")
		tracePath  = flag.String("trace", "", "write a per-fault span trace covering every campaign to this file")
		traceFmt   = flag.String("traceformat", "jsonl", "trace file format: jsonl, chrome (chrome://tracing)")
		flightPath = flag.String("flight", "", "record campaign events in a flight ring and dump them as JSON to this file on exit or error (analyze with cmd/obsreport)")
		shards     = flag.Int("shards", 0, "run each catalog-circuit campaign under the crash-tolerant process supervisor with this many worker shards (needs -diffprop; see internal/supervise)")
		workerBin  = flag.String("diffprop", "", "path to the diffprop binary supervised -shards campaigns exec (it re-executes itself as the shard workers)")
		shardDir   = flag.String("sharddir", "", "directory for supervised campaigns' merged and per-shard checkpoints (default: a temporary directory, removed on success; set it to keep and resume them)")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *maxBFs > 0 {
		cfg.MaxBFs = *maxBFs
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *theta > 0 {
		cfg.Theta = *theta
	}
	if *bins > 0 {
		cfg.Bins = *bins
	}
	if *circuits != "" {
		cfg.Circuits = strings.Split(*circuits, ",")
	}
	cfg.Workers = *workers
	cfg.FaultOps = *budget
	cfg.FaultTimeout = *timeout
	cfg.Recovery = diffprop.Recovery{
		NodeLimit:       *nodeLimit,
		RetryMultiplier: *retryMult,
	}
	if *gcAuto {
		cfg.Recovery.SiftPasses = diffprop.DefaultSiftPasses
		if cfg.Recovery.NodeLimit == 0 {
			cfg.Recovery.NodeLimit = 1 << 20
		}
	}
	mem, err := analysis.ParseMemLimit(*memLimit)
	if err != nil {
		fatal(fmt.Errorf("-memlimit: %w", err))
	}
	cfg.MemLimit = mem
	cfg.Calibrate = analysis.Calibration{Enabled: *calibrate}
	var cleanupShards = func() {}
	if *shards > 0 {
		if *workerBin == "" {
			fatal(fmt.Errorf("-shards needs -diffprop <binary> (the supervised worker executable)"))
		}
		cfg.Shards = *shards
		cfg.WorkerBinary = *workerBin
		cfg.ShardDir = *shardDir
		if cfg.ShardDir == "" {
			dir, err := os.MkdirTemp("", "figures-shards-")
			if err != nil {
				fatal(err)
			}
			cfg.ShardDir = dir
			// Removed on success only: after a fatal exit the checkpoints
			// are what -sharddir reruns resume from.
			cleanupShards = func() { os.RemoveAll(dir) }
		}
	}
	cfg.Obs = setupObs(*httpAddr, *logLevel, *logJSON, *tracePath, *traceFmt, *flightPath)
	if *verbose {
		cfg.Progress = func(circuit string, done, total int) {
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d faults", circuit, done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	r := experiments.NewRunner(cfg)

	var exhibits []experiments.Exhibit
	if *figID == "all" {
		var err error
		exhibits, err = r.All()
		if err != nil {
			fatal(err)
		}
	} else {
		ex, err := one(r, *figID)
		if err != nil {
			fatal(err)
		}
		exhibits = []experiments.Exhibit{ex}
	}

	for _, ex := range exhibits {
		fmt.Println(ex.Text)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*csvDir, ex.ID+".csv")
			if err := os.WriteFile(path, []byte(ex.CSV), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	cleanupShards()
	dumpFlight("completed")
	shutdownObs()
}

func one(r *experiments.Runner, id string) (experiments.Exhibit, error) {
	if id == "table1" {
		t := r.Table1()
		return experiments.Exhibit{ID: id, Text: t.Text(), CSV: t.CSV()}, nil
	}
	figs := map[string]func() (report.Figure, error){
		"fig1": r.Fig1, "fig2": r.Fig2, "fig3": r.Fig3, "fig4": r.Fig4,
		"fig5": r.Fig5, "fig6": r.Fig6, "fig7": r.Fig7, "fig8": r.Fig8,
	}
	if fn, ok := figs[id]; ok {
		f, err := fn()
		if err != nil {
			return experiments.Exhibit{}, err
		}
		return experiments.Exhibit{ID: id, Text: f.Text(), CSV: f.CSV()}, nil
	}
	tables := map[string]func() (report.Table, error){
		"x1": r.X1, "x2": r.X2, "x3": r.X3, "x4": r.X4, "x5": r.X5, "x6": r.X6, "x7": r.X7, "x8": r.X8, "x9": r.X9, "x10": r.X10, "x11": r.X11, "x12": r.X12, "summary": r.Summary,
	}
	if fn, ok := tables[id]; ok {
		t, err := fn()
		if err != nil {
			return experiments.Exhibit{}, err
		}
		return experiments.Exhibit{ID: id, Text: t.Text(), CSV: t.CSV()}, nil
	}
	return experiments.Exhibit{}, fmt.Errorf("unknown exhibit %q (table1, fig1..fig8, x1..x12, summary, all)", id)
}

// setupObs builds the observer shared by every campaign the runner
// launches and arms shutdownObs plus dumpFlight. Returns nil (the
// zero-overhead off state) when no observability flag is set. The
// timeline sampler runs whenever the flight recorder or the debug server
// wants it (the /timeline endpoint and the dump embed it).
func setupObs(httpAddr, logLevel string, logJSON bool, tracePath, traceFmt, flightPath string) *obs.Observer {
	if httpAddr == "" && logLevel == "" && tracePath == "" && flightPath == "" {
		return nil
	}
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	if flightPath != "" {
		o.Flight = obs.NewFlightRecorder(0)
	}
	var timeline *obs.Timeline
	if flightPath != "" || httpAddr != "" {
		timeline = o.StartTimeline(0, 0)
	}
	if logLevel != "" {
		lv, err := obs.ParseLevel(logLevel)
		if err != nil {
			fatal(err)
		}
		o.Log = obs.NewLogger(os.Stderr, lv, logJSON)
	}
	var traceFile *os.File
	if tracePath != "" {
		format, err := obs.ParseTraceFormat(traceFmt)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		o.Tracer = obs.NewTracer(f, format)
	}
	var srv *obs.Server
	if httpAddr != "" {
		o.Metrics.PublishExpvar("figures")
		s, err := obs.Serve(httpAddr, o)
		if err != nil {
			fatal(err)
		}
		srv = s
		fmt.Fprintf(os.Stderr, "figures: debug server on http://%s (/metrics /progress /debug/pprof)\n", s.Addr())
	}
	var once sync.Once
	shutdownObs = func() {
		once.Do(func() {
			timeline.Stop()
			if o.Tracer != nil {
				if err := o.Tracer.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "figures: closing trace: %v\n", err)
				}
			}
			if traceFile != nil {
				traceFile.Close()
			}
			if srv != nil {
				srv.Close()
			}
		})
	}
	if flightPath != "" {
		var dumpOnce sync.Once
		dumpFlight = func(reason string) {
			dumpOnce.Do(func() {
				// Freeze the timeline first so the dump's final sample covers
				// the run's tail.
				timeline.Stop()
				if ok, err := o.WriteFlightDump(flightPath, "figures", reason); err != nil {
					fmt.Fprintf(os.Stderr, "figures: writing flight dump: %v\n", err)
				} else if ok {
					fmt.Fprintf(os.Stderr, "figures: wrote flight dump (%s) to %s\n", reason, flightPath)
				}
			})
		}
	}
	return o
}

func fatal(err error) {
	dumpFlight("error")
	shutdownObs()
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
