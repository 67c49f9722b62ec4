// Command rcexp runs the reproduction experiments E1–E13 (DESIGN.md §4)
// and streams raw scenario sweeps. It is the tool that regenerates
// EXPERIMENTS.md.
//
// Usage:
//
//	rcexp                 run every experiment at full scale
//	rcexp -id E1          run one experiment
//	rcexp -quick          small sweeps (the test-suite scale)
//	rcexp -procs 8        trial-runner workers (0 = GOMAXPROCS); output
//	                      is byte-identical for every value, modulo the
//	                      "wall time" lines
//	rcexp -markdown       emit GitHub-flavored markdown tables
//	rcexp -list           list experiments with their claims
//	rcexp -list-scenarios list the named scenarios and adversary kinds
//	                      the experiments are built from (internal/scenario)
//	rcexp -list-topologies
//	                      list topology kinds (internal/topology)
//
// Raw sweep mode streams per-trial records instead of aggregated
// reports — bounded memory however many trials, so it is the mode for
// Theorem-1-scale runs. Every trial runs on the batch kernel, whose
// results are byte-identical to the scalar oracle's:
//
//	rcexp -scenario full-jam -n 1024 -trials 100000 > runs.jsonl
//	rcexp -scenario file.json -trials 50000 -out csv > runs.csv
//	rcexp -scenario gilbert-jam -topology gilbert:r=0.3 -trials 1000 > runs.jsonl
//	rcexp -scenario full-jam -trials 100000 -progress \
//	      -checkpoint runs.journal > runs.jsonl
//
// -shard i/N runs only the i-th of N contiguous shards with sweep-global
// seeds and trial numbers, so a shell loop is a poor-man's cluster:
// concatenating the N outputs in order is byte-identical to the full
// run (and to cmd/rccoordd's merged output):
//
//	for i in 0 1 2; do
//	  rcexp -scenario full-jam -trials 90000 -shard $i/3 > part$i.jsonl &
//	done; wait; cat part0.jsonl part1.jsonl part2.jsonl > runs.jsonl
//
// Ctrl-C stops a sweep (or an experiment) gracefully at the next engine
// phase boundary. -checkpoint journals each trial's NDJSON record behind
// a one-line sweep pin (scenario.Sweep.Pin, covering the whole
// scenario); rerunning the same command prints the journaled records
// and runs the rest, byte-identical to an uninterrupted run.
//
// Sweep mode is also the profiling harness: -cpuprofile captures the
// whole sweep (workers included) and -memprofile writes a heap profile
// at sweep end, both readable with `go tool pprof`:
//
//	rcexp -scenario full-jam -n 512 -trials 1000 \
//	      -cpuprofile cpu.prof -memprofile mem.prof > /dev/null
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"rcbcast/internal/experiment"
	"rcbcast/internal/scenario"
	"rcbcast/internal/sim"
	"rcbcast/internal/sim/sink"
	"rcbcast/internal/topology"
	"rcbcast/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rcexp:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rcexp", flag.ContinueOnError)
	var (
		id       = fs.String("id", "", "run a single experiment (e.g. E1)")
		quick    = fs.Bool("quick", false, "small sweeps")
		markdown = fs.Bool("markdown", false, "emit markdown tables")
		list     = fs.Bool("list", false, "list experiments")
		listScn  = fs.Bool("list-scenarios", false, "list named scenarios and adversary kinds")
		listTop  = fs.Bool("list-topologies", false, "list topology kinds and their knobs")
		seeds    = fs.Int("seeds", 0, "seeds per sweep point (0 = default)")
		n        = fs.Int("n", 0, "network size override (0 = default)")
		baseSeed = fs.Uint64("seed", 1, "base seed")
		procs    = fs.Int("procs", 0, "parallel trial workers (0 = GOMAXPROCS)")

		scn        = fs.String("scenario", "", "raw sweep mode: stream trials of a named scenario or JSON scenario file")
		topo       = fs.String("topology", "", "raw sweep mode: override the scenario's topology (KIND[:KNOB=V,...])")
		trials     = fs.Int("trials", 0, "raw sweep trial count (requires -scenario)")
		shard      = fs.String("shard", "", "run only the i-th of N contiguous sweep shards, as i/N; output is the byte-exact slice of the full run")
		outFormat  = fs.String("out", "jsonl", "raw sweep output format: jsonl or csv")
		progress   = fs.Bool("progress", false, "report sweep progress on stderr")
		checkpoint = fs.String("checkpoint", "", "journal completed trials here; rerun to resume")
		cpuprofile = fs.String("cpuprofile", "", "raw sweep mode: write a pprof CPU profile of the sweep here")
		memprofile = fs.String("memprofile", "", "raw sweep mode: write a pprof heap profile at sweep end here")
		showVer    = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *showVer {
		fmt.Fprintln(out, version.String())
		return nil
	}
	if *listScn {
		scenario.WriteList(out)
		return nil
	}
	if *listTop {
		topology.WriteList(out)
		return nil
	}
	if *list {
		for _, e := range experiment.All() {
			fmt.Fprintf(out, "%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}
	if *scn == "" && (*topo != "" || *shard != "" || *checkpoint != "" || *cpuprofile != "" || *memprofile != "") {
		return errors.New("-topology, -shard, -checkpoint, -cpuprofile and -memprofile need -scenario (sweep mode)")
	}
	if *scn != "" {
		sw, err := scenario.LoadSweep(*scn, *topo, *n, *trials, *baseSeed)
		if err != nil {
			return err
		}
		return runSweep(ctx, out, sw, sweepConfig{
			shard:      *shard,
			procs:      *procs,
			outFormat:  *outFormat,
			progress:   *progress,
			checkpoint: *checkpoint,
			cpuprofile: *cpuprofile,
			memprofile: *memprofile,
		})
	}

	cfg := experiment.Config{
		Quick:    *quick,
		Seeds:    *seeds,
		N:        *n,
		BaseSeed: *baseSeed,
		Procs:    *procs,
		Context:  ctx,
	}

	var exps []experiment.Experiment
	if *id != "" {
		e, ok := experiment.ByID(*id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *id)
		}
		exps = []experiment.Experiment{e}
	} else {
		exps = experiment.All()
	}

	for _, e := range exps {
		start := time.Now()
		rep, err := e.Run(cfg)
		if err != nil {
			// Both the sweep layer (*sim.PartialError) and direct engine
			// runs (*engine.PartialRunError, e.g. E11) unwrap to the
			// context error on Ctrl-C.
			if errors.Is(err, context.Canceled) {
				return fmt.Errorf("%s interrupted: %w", e.ID, err)
			}
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *markdown {
			fmt.Fprintf(out, "### %s — %s\n\n*Claim:* %s\n\n", rep.ID, rep.Title, rep.Claim)
			for _, t := range rep.Tables {
				fmt.Fprintln(out, t.Markdown())
			}
			for _, f := range rep.Findings {
				fmt.Fprintf(out, "- %s\n", f)
			}
			fmt.Fprintf(out, "- wall time: %v\n\n", time.Since(start).Round(time.Millisecond))
		} else {
			fmt.Fprintln(out, rep.Render())
			fmt.Fprintf(out, "wall time: %v\n\n", time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// sweepConfig gathers the raw-sweep flags the Sweep does not carry.
type sweepConfig struct {
	shard      string // "i/N", empty = whole sweep
	procs      int
	outFormat  string
	progress   bool
	checkpoint string
	cpuprofile string
	memprofile string
}

// profileSweep starts the requested pprof captures around a sweep and
// returns a finish func that stops the CPU profile and writes the heap
// profile (after a GC, so it reflects retained memory, not garbage).
func profileSweep(cfg sweepConfig) (finish func() error, err error) {
	var cpuFile *os.File
	if cfg.cpuprofile != "" {
		cpuFile, err = os.Create(cfg.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if cfg.memprofile != "" {
			f, err := os.Create(cfg.memprofile)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// runSweep streams per-trial records of one scenario through the
// session API: O(procs) live results, optional progress reporting, and
// a resumable record journal. A resume prints the journal's kept
// records, then streams only the trials after them.
func runSweep(ctx context.Context, w io.Writer, sw scenario.Sweep, cfg sweepConfig) (err error) {
	if err := sw.Validate(); err != nil { // before -shard cuts the trials
		return err
	}
	finishProfiles, err := profileSweep(cfg)
	if err != nil {
		return err
	}
	defer func() {
		if perr := finishProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()
	if cfg.shard != "" { // the i-th of N contiguous shards (scenario.CutShard)
		var i, n int
		if _, err := fmt.Sscanf(cfg.shard, "%d/%d", &i, &n); err != nil {
			return fmt.Errorf("-shard must be i/N (e.g. 0/4), got %q", cfg.shard)
		}
		if sw.Shard, err = scenario.CutShard(sw.Trials, i, n); err != nil {
			return err
		}
	}
	specs, err := sw.Specs()
	if err != nil {
		return err
	}
	var out interface { // the -out sink, which also replays kept records
		sim.Sink
		sink.RecordWriter
	}
	switch cfg.outFormat {
	case "jsonl":
		out = sink.NewNDJSON(w)
	case "csv":
		out = sink.NewCSV(w)
	default:
		return fmt.Errorf("unknown -out %q (have jsonl, csv)", cfg.outFormat)
	}
	sinks, done := []sim.Sink{out}, 0
	if cfg.checkpoint != "" {
		pin, err := sw.Pin()
		if err != nil {
			return err
		}
		lg, kept, _, err := sink.OpenRecords(cfg.checkpoint, pin, sw.Sequence())
		if err != nil {
			return err
		}
		defer lg.Close()
		if done = kept; done > 0 {
			fmt.Fprintf(os.Stderr, "rcexp: resuming %d/%d journaled trials from %s\n", done, len(specs), cfg.checkpoint)
			if err := sink.ReplayRecords(cfg.checkpoint, done, out); err != nil {
				return err
			}
		}
		// Journal first: no trial reaches the output before the journal.
		sinks = []sim.Sink{sink.NewNDJSON(lg), out}
	}
	if cfg.progress {
		// Time-throttled (a line a second, with trials/s and ETA): a
		// count-based cadence spams short trials, goes silent on long ones.
		sinks = append(sinks, sink.NewProgressEvery(os.Stderr, len(specs)-done, time.Second))
	}
	// Sweep-global trial numbers: the N shard outputs concatenate to the full run.
	err = sw.Stream(ctx, cfg.procs, specs, done, sinks...)
	var pe *sim.PartialError
	if errors.As(err, &pe) && errors.Is(pe, context.Canceled) {
		hint := "rerun with -checkpoint to make sweeps resumable"
		if cfg.checkpoint != "" {
			hint = fmt.Sprintf("rerun the same command to resume from %s", cfg.checkpoint)
		}
		return fmt.Errorf("sweep interrupted (%s): %w", hint, err)
	}
	return err
}
