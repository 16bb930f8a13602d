// Command diffprop runs exact Difference Propagation fault analysis on a
// single circuit and prints a per-fault report: exact detectability,
// syndrome/excitation bound, adherence, observable outputs, and one
// extracted test vector per detectable fault.
//
// Usage:
//
//	diffprop -circuit alu181                  # collapsed checkpoint stuck-ats
//	diffprop -circuit c95s -model and         # wired-AND bridging faults
//	diffprop -bench my.bench -model or -max 50
//	diffprop -circuit c17 -summary            # aggregates only
//	diffprop -circuit c1355s -budget 2000000 -timeout 5s   # degrade hard faults
//	diffprop -circuit c1908s -budget 200000 -gcauto -retrybudget 16   # rescue blown faults
//	diffprop -circuit c1908s -nodelimit 500000 -memlimit 2GiB        # bound memory, park workers
//	diffprop -circuit c1355s -checkpoint run.jsonl         # persist records
//	diffprop -circuit c1355s -checkpoint run.jsonl -resume # continue after a crash
//	diffprop -circuit c1355s -checkpoint run.jsonl -resume -retry-degraded  # re-attempt degraded faults
//	diffprop -circuit c1355s -http :6060 -log info         # live /metrics, /progress, pprof
//	diffprop -circuit c1355s -trace run.trace -traceformat chrome   # per-fault trace events
//
// An interrupt (Ctrl-C) cancels the campaign between faults: the partial
// study is reported, finished records stay in the checkpoint, and a later
// -resume run completes the set with bit-identical results. A second
// interrupt forces immediate exit (a wedged fault analysis cannot block
// the first, graceful cancellation).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/chaos"
	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/supervise"
)

// shutdownObs flushes the trace file, stops the timeline sampler and the
// debug server. main exits through os.Exit on several paths, so fatal and
// finishCampaign call it explicitly; it is idempotent.
var shutdownObs = func() {}

// dumpFlight writes the flight recorder's post-mortem dump (the -flight
// flag). Armed by setupObs; idempotent — the first reason wins, so a
// panic's dump is not overwritten by the exit path's. A no-op when
// -flight is unset.
var dumpFlight = func(reason string) {}

func main() {
	var (
		circuit    = flag.String("circuit", "", "built-in circuit name (see cmd/benchgen -list)")
		bench      = flag.String("bench", "", "path to an ISCAS-85 .bench netlist")
		model      = flag.String("model", "stuckat", "fault model: stuckat, and, or")
		max        = flag.Int("max", 0, "analyze at most this many faults (0 = all)")
		maxBFs     = flag.Int("maxbfs", 1000, "bridging fault sample ceiling")
		theta      = flag.Float64("theta", 0.3, "exponential distance parameter for sampling")
		seed       = flag.Int64("seed", 1990, "sampling seed")
		summary    = flag.Bool("summary", false, "print aggregates only")
		dotOut     = flag.String("dot", "", "write the first analyzed fault's complete-test-set BDD as Graphviz DOT to this file")
		workers    = flag.Int("workers", 1, "parallel analysis workers (0 = one per CPU)")
		verbose    = flag.Bool("v", false, "stream progress and campaign runtime stats to stderr")
		budget     = flag.Int64("budget", 0, "per-fault BDD operation budget (0 = unlimited); blown faults degrade to simulation estimates")
		timeout    = flag.Duration("timeout", 0, "per-fault wall-clock budget (0 = unlimited)")
		nodeLimit  = flag.Int("nodelimit", 0, "per-fault BDD node-count watermark (0 = unlimited); a tripped analysis enters the recovery ladder")
		gcAuto     = flag.Bool("gcauto", false, "enable recovery sifting: reorder variables when post-GC node counts still exceed -nodelimit (defaults -nodelimit to 1Mi nodes if unset)")
		retryMult  = flag.Float64("retrybudget", 0, "retry a blown fault once under its budgets scaled by this multiplier before degrading (<=1 disables)")
		memLimit   = flag.String("memlimit", "", "campaign heap ceiling, e.g. 2GiB: park workers near it instead of OOMing (empty = GOMEMLIMIT if set; off = never)")
		estVectors = flag.Int("estvectors", 0, "random vectors behind each degraded estimate (0 = default)")
		ckptPath   = flag.String("checkpoint", "", "persist finished records to this JSONL file as they complete")
		resume     = flag.Bool("resume", false, "continue from the -checkpoint file, skipping already-persisted faults")
		retryDegr  = flag.Bool("retry-degraded", false, "with -resume: re-attempt checkpointed Approximate/error/skipped faults instead of carrying them forward")
		calibrate  = flag.Bool("calibrate", false, "self-calibrate the per-fault budget and retry ladder from the circuit's measured op-cost distribution (replaces hand-tuned -budget/-retrybudget)")
		calibJSON  = flag.String("calibjson", "", "write the final calibration state (armed budget, retry multiplier, updates) as JSON to this file")
		chaosSpec  = flag.String("chaos", "", "deterministic fault-injection spec, e.g. 'seed=7;budget:p=0.35;latency:p=0.2,d=2ms' (see internal/chaos)")
		httpAddr   = flag.String("http", "", "serve the debug endpoints (/metrics, /progress, /debug/pprof) on this address, e.g. :6060")
		logLevel   = flag.String("log", "", "structured logging level on stderr: debug, info, warn, error (empty = off)")
		logJSON    = flag.Bool("logjson", false, "emit structured logs as JSON instead of logfmt text")
		tracePath  = flag.String("trace", "", "stream one trace event per analyzed fault to this file")
		traceFmt   = flag.String("traceformat", "jsonl", "trace file format: jsonl, chrome (chrome://tracing)")
		flightPath = flag.String("flight", "", "record campaign events in a flight ring and dump them as JSON to this file on exit, panic, checkpoint failure or interrupt (convention: <checkpoint>.flight.json; analyze with cmd/obsreport)")

		shards     = flag.Int("shards", 0, "supervisor mode: partition the fault set into N shards, each analyzed by a supervised, restartable worker subprocess; merged results are bit-identical to an unsupervised run (needs -checkpoint)")
		shardProcs = flag.Int("shard-procs", 0, "supervisor: cap on concurrently running shard workers (0 = all shards at once)")
		shardDir   = flag.String("shard-dir", "", "supervisor: directory for per-shard checkpoints (default <checkpoint>.shards); rerunning over the same directory resumes them")
		hbTimeout  = flag.Duration("hb-timeout", supervise.DefaultHeartbeatTimeout, "supervisor: SIGKILL a worker after this much protocol silence and re-dispatch its shard")
		maxRestart = flag.Int("max-restarts", supervise.DefaultMaxRestarts, "supervisor: per-shard worker restarts before bisecting toward poison-fault quarantine (-1 = escalate on the first death)")
		workerBin  = flag.String("worker-binary", "", "supervisor: worker executable (default: this binary re-executed)")

		workerShard   = flag.String("worker-shard", "", "internal: run as a shard worker over global faults lo-hi; the supervisor owns stdout (JSONL protocol) and stdin (orphan watchdog)")
		workerAttempt = flag.Int("worker-attempt", 0, "internal: this worker's restart attempt (gates one-shot chaos process points)")
		workerHB      = flag.Duration("worker-hb", time.Second, "internal: worker heartbeat period")
	)
	flag.Parse()

	if *resume && *ckptPath == "" {
		fatal(fmt.Errorf("-resume needs -checkpoint <file>"))
	}
	if *retryDegr && !*resume {
		fatal(fmt.Errorf("-retry-degraded needs -resume (it re-attempts faults restored from the checkpoint)"))
	}
	if *workerShard != "" && *shards > 0 {
		fatal(fmt.Errorf("-worker-shard and -shards are mutually exclusive (one process is either a worker or its supervisor)"))
	}
	if (*workerShard != "" || *shards > 0) && *ckptPath == "" {
		fatal(fmt.Errorf("-shards/-worker-shard need -checkpoint <file>"))
	}
	if *shards > 0 && *resume {
		fmt.Fprintln(os.Stderr, "diffprop: note: -resume is implicit under -shards (per-shard checkpoints in -shard-dir resume automatically)")
	}
	memCeiling, err := analysis.ParseMemLimit(*memLimit)
	if err != nil {
		fatal(fmt.Errorf("-memlimit: %w", err))
	}
	chaosCfg, err := chaos.Parse(*chaosSpec)
	if err != nil {
		fatal(fmt.Errorf("-chaos: %w", err))
	}

	o := setupObs("diffprop", *httpAddr, *logLevel, *logJSON, *tracePath, *traceFmt, *flightPath)
	// A panic anywhere below still produces the flight dump — the whole
	// point of a flight recorder — before the panic propagates.
	defer func() {
		if r := recover(); r != nil {
			dumpFlight("panic")
			shutdownObs()
			panic(r)
		}
	}()

	c, err := loadCircuit(*circuit, *bench)
	if err != nil {
		fatal(err)
	}
	e, err := diffprop.New(c, nil)
	if err != nil {
		fatal(err)
	}
	w := e.Circuit
	if *workerShard == "" {
		// Workers keep stdout clean: it is the supervision protocol pipe.
		fmt.Printf("circuit: %s (analyzed as %d two-input gates, %d PIs, %d POs)\n\n",
			c, w.NumGates(), len(w.Inputs), len(w.Outputs))
	}

	// First SIGINT cancels the campaign gracefully between faults; a second
	// forces immediate exit so a wedged analysis cannot hold the process
	// hostage. signal.NotifyContext would swallow the repeat Ctrl-C.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "diffprop: interrupt: finishing in-flight faults, then reporting partial results (interrupt again to exit immediately)")
		cancel()
		<-sigCh
		fmt.Fprintln(os.Stderr, "diffprop: second interrupt: exiting now; partial results were not reported, but checkpointed records (if any) remain valid for -resume")
		dumpFlight("interrupt")
		shutdownObs()
		os.Exit(130)
	}()

	rcfg := diffprop.Recovery{
		NodeLimit:       *nodeLimit,
		RetryMultiplier: *retryMult,
	}
	if *gcAuto {
		rcfg.SiftPasses = diffprop.DefaultSiftPasses
		if rcfg.NodeLimit == 0 {
			rcfg.NodeLimit = 1 << 20
		}
	}

	ccfg := analysis.CampaignConfig{
		Workers:         *workers,
		Context:         ctx,
		FaultOps:        *budget,
		FaultTimeout:    *timeout,
		FallbackVectors: *estVectors,
		Recovery:        rcfg,
		MemLimit:        memCeiling,
		Obs:             o,
		Chaos:           chaosCfg,
		Calibrate:       analysis.Calibration{Enabled: *calibrate},
	}
	if *verbose {
		ccfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d faults", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	if *workerShard != "" {
		wm := &workerMode{
			shard:    *workerShard,
			attempt:  *workerAttempt,
			hbEvery:  *workerHB,
			model:    *model,
			max:      *max,
			maxBFs:   *maxBFs,
			theta:    *theta,
			seed:     *seed,
			ckptPath: *ckptPath,
			chaosCfg: chaosCfg,
			ccfg:     ccfg,
		}
		wm.run(c, w) // exits the process
	}
	var sup *supervisorMode
	if *shards > 0 {
		sup = &supervisorMode{
			shards:      *shards,
			procs:       *shardProcs,
			dir:         *shardDir,
			hbTimeout:   *hbTimeout,
			maxRestarts: *maxRestart,
			binary:      *workerBin,
			ckptPath:    *ckptPath,
			verbose:     *verbose,
			obs:         o,
			flags: workerFlagSet{
				circuit: *circuit, bench: *bench, model: *model,
				max: *max, maxBFs: *maxBFs, theta: *theta, seed: *seed,
				workers: *workers,
				budget:  *budget, timeout: *timeout, nodeLimit: *nodeLimit,
				gcAuto: *gcAuto, retryMult: *retryMult, memLimit: *memLimit,
				estVectors: *estVectors, calibrate: *calibrate,
				chaosSpec: *chaosSpec, logLevel: *logLevel, logJSON: *logJSON,
				hbEvery: *workerHB,
			},
		}
	}

	switch strings.ToLower(*model) {
	case "stuckat", "sa":
		fs := faults.CheckpointStuckAts(w)
		fs = truncateFaults(fs, *max)
		var study analysis.StuckAtStudy
		if sup != nil {
			study = runShardedStuckAt(ctx, sup, c, w, fs, ccfg)
		} else {
			cp := openCheckpoint(*ckptPath, *resume, *retryDegr, analysis.StuckAtCheckpointHeader(w, fs), &ccfg)
			var err error
			study, err = analysis.RunStuckAtCampaign(c, nil, fs, ccfg)
			closeCheckpoint(cp)
			if err != nil {
				fatal(err)
			}
		}
		if *verbose {
			fmt.Fprintln(os.Stderr, study.Stats)
		}
		if *dotOut != "" && len(fs) > 0 {
			res := e.StuckAt(fs[0])
			dot := e.Manager().DOT(fs[0].Describe(w), res.Complete)
			if err := os.WriteFile(*dotOut, []byte(dot), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (complete test set of %s)\n", *dotOut, fs[0].Describe(w))
		}
		if !*summary {
			printStuckAt(e, w, study)
		}
		fmt.Printf("faults: %d   detectable: %.1f%%   mean detectability (detectable): %.4f   observed==fed rate: %.3f\n",
			len(study.Records), 100*study.CoverageRate(), study.MeanDetectable(), study.ObservedEqualsFedRate())
		fmt.Printf("post-dominator factoring: %.1f chain steps evaluated per fault, %.1f faults per root propagation\n",
			study.MeanGatesEvaluated(), faultsPerRoot(e, fs))
		writeCalibJSON(*calibJSON, c.Name, study.Stats)
		finishCampaign(study.Stats, study.Errors(), study.DegradedFaults())
	case "and", "or":
		kind := faults.WiredAND
		if strings.ToLower(*model) == "or" {
			kind = faults.WiredOR
		}
		set, pop, sampled := analysis.BridgingSet(w, kind, *maxBFs, *theta, *seed)
		set = truncateFaults(set, *max)
		var study analysis.BridgingStudy
		if sup != nil {
			study = runShardedBridging(ctx, sup, c, w, set, kind, pop, sampled, ccfg)
		} else {
			cp := openCheckpoint(*ckptPath, *resume, *retryDegr, analysis.BridgingCheckpointHeader(w, set), &ccfg)
			var err error
			study, err = analysis.RunBridgingCampaign(c, nil, set, kind, pop, sampled, ccfg)
			closeCheckpoint(cp)
			if err != nil {
				fatal(err)
			}
		}
		if *verbose {
			fmt.Fprintln(os.Stderr, study.Stats)
		}
		if !*summary {
			printBridging(w, study)
		}
		fmt.Printf("faults: %d of %d potentially detectable NFBFs (sampled: %v)\n", len(study.Records), pop, sampled)
		fmt.Printf("detectable: %.1f%%   mean detectability (detectable): %.4f   stuck-at behavior: %.1f%%\n",
			100*study.CoverageRate(), study.MeanDetectable(), 100*study.StuckAtProportion())
		writeCalibJSON(*calibJSON, c.Name, study.Stats)
		finishCampaign(study.Stats, study.Errors(), study.DegradedFaults())
	default:
		fatal(fmt.Errorf("unknown fault model %q (stuckat, and, or)", *model))
	}
}

// setupObs builds the campaign observer from the -http/-log/-logjson/
// -trace/-traceformat/-flight flags and arms shutdownObs plus dumpFlight.
// Returns nil — the zero-overhead off state — when no observability flag
// is set. The timeline sampler runs whenever the flight recorder or the
// debug server wants it (the /timeline endpoint and the dump embed it).
func setupObs(prog, httpAddr, logLevel string, logJSON bool, tracePath, traceFmt, flightPath string) *obs.Observer {
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
		o.Metrics.PublishExpvar(prog)
		s, err := obs.Serve(httpAddr, o)
		if err != nil {
			fatal(err)
		}
		srv = s
		fmt.Fprintf(os.Stderr, "%s: debug server on http://%s (/metrics /progress /debug/pprof)\n", prog, s.Addr())
	}
	var once sync.Once
	shutdownObs = func() {
		once.Do(func() {
			timeline.Stop()
			if o.Tracer != nil {
				if err := o.Tracer.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "%s: closing trace: %v\n", prog, err)
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
				if ok, err := o.WriteFlightDump(flightPath, prog, reason); err != nil {
					fmt.Fprintf(os.Stderr, "%s: writing flight dump: %v\n", prog, err)
				} else if ok {
					fmt.Fprintf(os.Stderr, "%s: wrote flight dump (%s) to %s\n", prog, reason, flightPath)
				}
			})
		}
	}
	return o
}

// faultsPerRoot reports how many stuck-at faults share each full
// propagation: the top that ends each fault's chain of immediate
// post-dominators, as the engine factors it. It is the faults per root
// propagation of one engine that runs the whole set between compactions,
// computed from the engine's table rather than its counters, so the line
// stays identical at any worker count (the runtime count is
// CampaignStats' root-props under -v).
func faultsPerRoot(e *diffprop.Engine, fs []faults.StuckAt) float64 {
	tops := map[int]bool{}
	for _, f := range fs {
		net := f.Net
		if f.IsBranch() {
			net = f.Gate
		}
		for e.PostDominator(net) >= 0 {
			net = e.PostDominator(net)
		}
		if e.PostDominator(net) == -1 {
			tops[net] = true
		}
	}
	if len(tops) == 0 {
		return 0
	}
	return float64(len(fs)) / float64(len(tops))
}

// truncateFaults applies -max, warning on stderr when it actually drops
// faults: a truncated set silently changes every aggregate the report
// prints.
func truncateFaults[F any](fs []F, max int) []F {
	if max > 0 && len(fs) > max {
		fmt.Fprintf(os.Stderr, "diffprop: warning: -max truncates the fault set from %d to %d faults; aggregates cover the truncated set only\n", len(fs), max)
		return fs[:max]
	}
	return fs
}

// openCheckpoint wires the checkpoint file (if any) into the campaign
// config: fresh creation by default, validated resume with -resume. With
// retryDegraded, restored Approximate/error/skipped records are dropped
// so the campaign re-attempts those faults; the re-run records append
// after the originals and win on the next load.
func openCheckpoint(path string, resume, retryDegraded bool, hdr analysis.CheckpointHeader, ccfg *analysis.CampaignConfig) *analysis.Checkpointer {
	if path == "" {
		return nil
	}
	if resume {
		cp, records, err := analysis.ResumeCheckpoint(path, hdr)
		if err != nil {
			fatal(err)
		}
		retrying := 0
		if retryDegraded {
			retrying, err = analysis.DropDegradedRecords(records)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", path, err))
			}
			if retrying > 0 {
				fmt.Fprintf(os.Stderr, "diffprop: re-attempting %d degraded/errored fault(s) from %s\n", retrying, path)
			}
		}
		if len(records) > 0 {
			fmt.Fprintf(os.Stderr, "diffprop: resuming %s: %d of %d faults already analyzed\n", path, len(records), hdr.Faults)
		}
		ccfg.Obs.Logger().Info("checkpoint resumed",
			"path", path, "fingerprint", hdr.Fingerprint,
			"restored", len(records), "retrying", retrying, "faults", hdr.Faults)
		ccfg.Checkpoint = cp
		ccfg.Resume = records
		return cp
	}
	cp, err := analysis.CreateCheckpoint(path, hdr)
	if err != nil {
		fatal(err)
	}
	ccfg.Checkpoint = cp
	return cp
}

// closeCheckpoint flushes the checkpoint; main exits through os.Exit, so
// this cannot be left to a defer.
func closeCheckpoint(cp *analysis.Checkpointer) {
	if cp == nil {
		return
	}
	if err := cp.Close(); err != nil {
		fatal(err)
	}
}

// writeCalibJSON persists the campaign's final calibration state (the
// -calibjson flag) so CI can publish the self-tuned bounds as an artifact
// next to the benchmark numbers.
func writeCalibJSON(path, circuit string, stats analysis.CampaignStats) {
	if path == "" {
		return
	}
	out, err := json.MarshalIndent(struct {
		Circuit         string  `json:"circuit"`
		Faults          int     `json:"faults"`
		Degraded        int     `json:"degraded"`
		Rescued         int     `json:"rescued"`
		BudgetOps       int64   `json:"calibration_budget_ops"`
		RetryMultiplier float64 `json:"calibration_retry_multiplier"`
		Updates         int     `json:"calibration_updates"`
	}{
		Circuit:         circuit,
		Faults:          stats.Faults,
		Degraded:        stats.Degraded,
		Rescued:         stats.Rescued,
		BudgetOps:       stats.CalibrationBudgetOps,
		RetryMultiplier: stats.CalibrationRetryMult,
		Updates:         stats.CalibrationUpdates,
	}, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "diffprop: wrote calibration state to %s\n", path)
}

// finishCampaign reports degradation/cancellation on stderr and exits
// non-zero when any per-fault analysis failed. The degraded and error
// lists come pre-sorted by fault index, so this output is deterministic
// regardless of how the workers interleaved.
func finishCampaign(stats analysis.CampaignStats, errs []analysis.FaultError, degraded []analysis.DegradedFault) {
	dumpFlight("completed")
	shutdownObs()
	if stats.Rescued > 0 {
		fmt.Fprintf(os.Stderr, "diffprop: recovery ladder rescued %d of %d budget-blown fault(s) to exact results\n", stats.Rescued, stats.Retried)
	}
	if stats.Degraded > 0 {
		fmt.Fprintf(os.Stderr, "diffprop: %d fault(s) blew the per-fault budget; their detectabilities are random-vector estimates (marked ~):\n", stats.Degraded)
		const maxListed = 20
		for i, d := range degraded {
			if i == maxListed {
				fmt.Fprintf(os.Stderr, "  ... and %d more\n", len(degraded)-maxListed)
				break
			}
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
	}
	if stats.Canceled {
		fmt.Fprintln(os.Stderr, "diffprop: campaign cancelled; unanalyzed faults are marked skipped")
	}
	if len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "diffprop: %d fault(s) failed to analyze:\n", len(errs))
		for _, fe := range errs {
			fmt.Fprintf(os.Stderr, "  %s\n", fe)
		}
		os.Exit(2)
	}
}

func loadCircuit(name, bench string) (*netlist.Circuit, error) {
	switch {
	case name != "" && bench != "":
		return nil, fmt.Errorf("pass either -circuit or -bench, not both")
	case name != "":
		return circuits.Get(name)
	case bench != "":
		f, err := os.Open(bench)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return netlist.ParseBench(bench, f)
	default:
		return nil, fmt.Errorf("pass -circuit <name> or -bench <file>")
	}
}

func printStuckAt(e *diffprop.Engine, w *netlist.Circuit, study analysis.StuckAtStudy) {
	t := report.Table{
		Columns: []string{"fault", "detect", "bound", "adher", "POs obs/fed", "toPO", "test"},
	}
	for _, r := range study.Records {
		var test string
		switch {
		case r.Skipped:
			t.Rows = append(t.Rows, []string{r.Fault.Describe(w), "(skipped)", "", "", "", "", ""})
			continue
		case r.Err != "":
			t.Rows = append(t.Rows, []string{r.Fault.Describe(w), "(error)", "", "", "", "", r.Err})
			continue
		case r.Approximate:
			// The exact complete test set was never built, so there is no
			// vector to extract; the detectability is an estimate.
			test = fmt.Sprintf("(estimate over %d vectors)", r.EstimateVectors)
		case r.Detectable():
			res := e.StuckAt(r.Fault)
			test = vectorString(e, res)
		default:
			test = "(redundant)"
		}
		adher := "-"
		if r.AdherenceOK {
			adher = fmt.Sprintf("%.3f", r.Adherence)
		}
		detect := fmt.Sprintf("%.4f", r.Detectability)
		if r.Approximate {
			detect = "~" + detect
		}
		t.Rows = append(t.Rows, []string{
			r.Fault.Describe(w),
			detect,
			fmt.Sprintf("%.4f", r.UpperBound),
			adher,
			fmt.Sprintf("%d/%d", r.ObservedPOs, r.POsFed),
			fmt.Sprintf("%d", r.MaxLevelsToPO),
			test,
		})
	}
	fmt.Println(t.Text())
}

func printBridging(w *netlist.Circuit, study analysis.BridgingStudy) {
	t := report.Table{
		Columns: []string{"fault", "detect", "bound", "adher", "POs obs/fed", "stuck-at?"},
	}
	for _, r := range study.Records {
		switch {
		case r.Skipped:
			t.Rows = append(t.Rows, []string{r.Fault.Describe(w), "(skipped)", "", "", "", ""})
			continue
		case r.Err != "":
			t.Rows = append(t.Rows, []string{r.Fault.Describe(w), "(error)", "", "", "", r.Err})
			continue
		}
		adher := "-"
		if r.AdherenceOK {
			adher = fmt.Sprintf("%.3f", r.Adherence)
		}
		sa := ""
		if r.ActsStuckAt {
			sa = "yes"
		}
		detect := fmt.Sprintf("%.4f", r.Detectability)
		if r.Approximate {
			detect = "~" + detect
		}
		t.Rows = append(t.Rows, []string{
			r.Fault.Describe(w),
			detect,
			fmt.Sprintf("%.4f", r.UpperBound),
			adher,
			fmt.Sprintf("%d/%d", r.ObservedPOs, r.POsFed),
			sa,
		})
	}
	fmt.Println(t.Text())
}

// vectorString extracts one test from the complete test set and renders it
// in primary-input declaration order.
func vectorString(e *diffprop.Engine, res diffprop.Result) string {
	cube := e.Manager().AnySat(res.Complete)
	if cube == nil {
		return "(redundant)"
	}
	v2i := e.VarToInput()
	out := make([]byte, len(cube))
	for i := range out {
		out[i] = '-'
	}
	for v, s := range cube {
		if v2i[v] < 0 {
			continue
		}
		switch s {
		case 0:
			out[v2i[v]] = '0'
		case 1:
			out[v2i[v]] = '1'
		}
	}
	return string(out[:len(e.Circuit.Inputs)])
}

func fatal(err error) {
	// A CheckpointError (or any campaign abort) still gets its post-mortem:
	// dump before tearing observability down.
	dumpFlight("error")
	shutdownObs()
	fmt.Fprintln(os.Stderr, "diffprop:", err)
	os.Exit(1)
}
