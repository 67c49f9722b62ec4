// Command perfbench times the whole sweep pipeline of this repository —
// engine, sinks, the rcserved worker service and the rccoordd
// coordinator — in one process, and with -trace 1 re-runs each
// workload's trials at five depths to price every layer.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fine-shards --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Progress and the traffic
// check go to standard error. See perfbench/NOTES.md for the design.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"rcbcast/internal/scenario"
)

// setups is how many times a run sets the deployment up; setup_s is
// their median.
const setups = 3

// minPasses is the fewest timed sweeps a run makes, however short
// -seconds is.
const minPasses = 3

// inputs is everything the program receives for one workload: the
// scenario JSON, the sweep's trial count and base seed, and the shard
// size. warm marks warm-replay, whose worker store is filled in set-up.
type inputs struct {
	name         string
	scenarioJSON []byte
	sc           scenario.Scenario
	trials       int
	baseSeed     uint64
	shardSize    int
	warm         bool
	warmup       int // trials in a fresh-store workload's warm-up sweep
}

var workloads = []string{"gilbert-sweep", "fine-shards", "warm-replay"}

// splitmix64 turns the benchmark seed into the sweep's base seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// makeInputs generates a workload's inputs from the seed.
func makeInputs(workload string, seed uint64) (*inputs, error) {
	in := &inputs{name: workload, baseSeed: splitmix64(seed)}
	var sc scenario.Scenario
	switch workload {
	case "gilbert-sweep":
		sc, _ = scenario.Lookup("gilbert-jam")
		sc.N, sc.Batch = 256, 8
		in.trials, in.shardSize, in.warmup = 256, 32, 32
	case "fine-shards", "warm-replay":
		sc, _ = scenario.Lookup("benign")
		sc.N, sc.Batch = 16, 8
		in.trials, in.shardSize, in.warmup = 20000, 50, 2000
		in.warm = workload == "warm-replay"
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloads)
	}
	enc, err := scenario.Encode(sc)
	if err != nil {
		return nil, err
	}
	// The program sees the scenario only as JSON, decoded by its own API.
	in.scenarioJSON = enc
	if in.sc, err = scenario.Decode(enc); err != nil {
		return nil, err
	}
	return in, nil
}

// buildReference streams the sweep in a single process, the output
// every timed run and every ladder depth must reproduce byte for byte.
func buildReference(in *inputs) (reference, error) {
	rs := newRefSink(in.shardSize)
	if err := in.sc.Stream(context.Background(), 1, in.baseSeed, 0, in.trials, rs); err != nil {
		return reference{}, err
	}
	return rs.result(in.trials), nil
}

// setUp brings up one deployment: store, listener and worker, the
// first ready probe, and a warm-up sweep — for warm-replay, filling
// the store with every shard and replaying it once.
func setUp(in *inputs, ref reference, root string) (*harness, error) {
	h, err := newHarness(in, ref, root)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*harness, error) {
		h.close()
		return nil, err
	}
	if err := h.waitReady(); err != nil {
		return fail(err)
	}
	if in.warm {
		for i := 0; i < 2; i++ {
			p, err := h.sweep(in.trials, nil, -1)
			if err == nil {
				err = p.err
			}
			if err != nil {
				return fail(fmt.Errorf("fill store: %w", err))
			}
		}
		return h, nil
	}
	if _, err := h.sweep(in.warmup, nil, -1); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	return h, nil
}

// report is a run's result line.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: gilbert-sweep, fine-shards or warm-replay")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measuring time per run")
	trace := flag.Int("trace", 0, "1 runs the traced depth ladder and reports per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory (inside the checkout)")
	flag.Parse()
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

	// Two threads: one for the engine, one for the feed and the merge.
	// More would oversubscribe a 2-vCPU host and measure its scheduler.
	runtime.GOMAXPROCS(2)
	in, err := makeInputs(*workload, *seed)
	if err != nil {
		logf("%v", err)
		return 2
	}
	root := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(root)

	ref, err := buildReference(in)
	if err != nil {
		logf("reference sweep: %v", err)
		return 1
	}
	logf("%s: %d trials in shards of %d, base seed %#x, reference %d bytes (sha256 %s)",
		in.name, in.trials, in.shardSize, in.baseSeed, ref.bytes, short(ref.digest))

	var h *harness
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if h != nil {
			h.close()
		}
		t0 := time.Now()
		if h, err = setUp(in, ref, filepath.Join(root, fmt.Sprintf("deploy-%d", i))); err != nil {
			logf("set-up: %v", err)
			return 1
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer h.close()
	logf("set-up times %.3v s", setupTimes)

	budget := time.Duration(*seconds) * time.Second
	var rep report
	if *trace == 1 {
		spans := filepath.Join(*work, "spans", fmt.Sprintf("%s-seed%d.json", in.name, *seed))
		rep, err = traced(h, budget, spans, logf)
	} else {
		rep, err = timed(h, budget, median(setupTimes), logf)
	}
	if err != nil {
		logf("%v", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// timed runs untraced sweeps for the budget and reports the end-to-end
// metrics: medians over the passes, except the peak heap, which is the
// lowest pass peak (NOTES.md explains why).
func timed(h *harness, budget time.Duration, setupS float64, logf func(string, ...any)) (report, error) {
	rep := report{Correct: true, Metrics: metrics{}}
	var tps, cpu, allocs, heap, disk, wire []float64 // one sample per pass
	deadline := time.Now().Add(budget)
	for len(tps) < minPasses || time.Now().Before(deadline) {
		if !h.in.warm {
			if err := h.freshWorker(); err != nil {
				return rep, err
			}
		}
		p, err := h.sweep(h.in.trials, nil, -1)
		if err != nil {
			return rep, err
		}
		if p.err != nil {
			logf("pass %d: %v", len(tps), p.err)
			rep.Correct = false
		}
		rep.Attempted += p.attempts()
		rep.Failed += p.failed()
		n := float64(p.trials)
		tps = append(tps, n/p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds()/n*1000)
		allocs = append(allocs, float64(p.allocs)/n)
		heap = append(heap, float64(p.peakLive)/1e6)
		disk = append(disk, float64(p.disk)/n)
		wire = append(wire, float64(p.wire)/n)
	}
	logf("%d passes: trials/s %.4v", len(tps), tps)
	logf("cpu s/ktrial %.4v", cpu)
	logf("allocs/trial %.4v", allocs)
	logf("peak heap MB %.4v", heap)
	m := rep.Metrics
	for _, e := range []struct {
		name, unit string
		v          float64
	}{
		{"trials_per_s", "1/s", median(tps)},
		{"cpu_s_per_ktrial", "s", median(cpu)},
		{"peak_heap_mb", "MB", slices.Min(heap)},
		{"disk_bytes_per_trial", "B", median(disk)},
		{"wire_bytes_per_trial", "B", median(wire)},
		{"setup_s", "s", setupS},
		{"ok_frac", "ratio", 1 - ratio(float64(rep.Failed), float64(rep.Attempted))},
	} {
		if err := m.set(e.name, e.unit, e.v); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
