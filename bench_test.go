package rcbcast_test

// The benchmark harness regenerates every experiment table from DESIGN.md
// §4: run `go test -bench=. -benchmem` and each benchmark executes its
// experiment at full scale, reporting the headline measured quantity
// (usually a fitted exponent) as a custom benchmark metric so the
// paper-vs-measured comparison appears directly in benchmark output.
//
// BenchmarkE1CostScalingK2 .. BenchmarkE13Topology correspond to
// experiments E1..E13; EXPERIMENTS.md records one full run.

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/engine"
	"rcbcast/internal/experiment"
	"rcbcast/internal/sim"
	"rcbcast/internal/sim/sink"
	"rcbcast/internal/stats"
)

// benchConfig scales experiments for benchmarking: full sweeps, one seed
// per point per iteration (b.N handles repetition). Procs=0 lets each
// experiment's trial runner use every core; reported values are
// byte-identical to a sequential run.
func benchConfig() experiment.Config {
	return experiment.Config{Seeds: 1, BaseSeed: 7}
}

// runExperiment executes one experiment per benchmark iteration and
// reports the selected Values as benchmark metrics.
func runExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	e, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var last *experiment.Report
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.BaseSeed += uint64(i)
		rep, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	for _, m := range metrics {
		if v, ok := last.Values[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

func BenchmarkE1CostScalingK2(b *testing.B) {
	runExperiment(b, "E1", "node_exponent", "alice_exponent", "predicted_exponent")
}

func BenchmarkE2CostScalingK(b *testing.B) {
	runExperiment(b, "E2", "node_exponent_k2", "node_exponent_k3", "node_exponent_k4")
}

func BenchmarkE3Delivery(b *testing.B) {
	runExperiment(b, "E3", "informed_benign", "informed_full-jam", "informed_partition-5%")
}

func BenchmarkE4Latency(b *testing.B) {
	runExperiment(b, "E4", "latency_exponent", "predicted_exponent")
}

func BenchmarkE5LoadBalance(b *testing.B) {
	runExperiment(b, "E5", "max_ratio", "polylog_bound")
}

func BenchmarkE6Baselines(b *testing.B) {
	runExperiment(b, "E6",
		"naive_node_exponent", "ksy_alice_exponent", "ksy_node_exponent",
		"ours_alice_exponent", "ours_node_exponent")
}

func BenchmarkE7Reactive(b *testing.B) {
	runExperiment(b, "E7", "exponent_undefended", "exponent_decoy")
}

func BenchmarkE8Spoofing(b *testing.B) {
	runExperiment(b, "E8", "alice_exponent", "predicted_exponent")
}

func BenchmarkE9NUniform(b *testing.B) {
	runExperiment(b, "E9", "stranded_at_0.05", "completed_at_0.30")
}

func BenchmarkE10Approx(b *testing.B) {
	runExperiment(b, "E10", "cost_ratio_v1", "cost_ratio_v3")
}

func BenchmarkE12MultiHop(b *testing.B) {
	runExperiment(b, "E12", "latency_per_hop_ratio", "concentrated_delay_ratio")
}

func BenchmarkE13Topology(b *testing.B) {
	runExperiment(b, "E13", "ratio_benign_r0.4", "ratio_jam_r0.4", "reachable_frac_r0.1")
}

// BenchmarkE11Engines compares the two engines head-to-head on identical
// workloads (the equivalence itself is asserted by the test suite).
func BenchmarkE11Engines(b *testing.B) {
	mk := func(seed uint64) engine.Options {
		return engine.Options{
			Params:   core.PracticalParams(1024, 2),
			Seed:     seed,
			Strategy: adversary.FullJam{},
			Pool:     energy.NewPool(1 << 14),
		}
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(mk(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("actors", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.RunActors(mk(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProtocolThroughput measures raw simulation speed through the
// parallel trial runner: trials and slots per second across network
// sizes and worker counts, for sizing larger studies. Each iteration is
// one batch of trialsPerBatch independent full-jam runs dispatched via
// sim.RunTrials.
func BenchmarkProtocolThroughput(b *testing.B) {
	const trialsPerBatch = 8
	procsVariants := []int{1, runtime.GOMAXPROCS(0)}
	if procsVariants[1] == 1 {
		procsVariants = procsVariants[:1]
	}
	for _, n := range []int{256, 1024, 4096} {
		for _, procs := range procsVariants {
			b.Run(benchName(n, procs), func(b *testing.B) {
				var slots, trials int64
				for i := 0; i < b.N; i++ {
					specs := make([]sim.TrialSpec, trialsPerBatch)
					for t := range specs {
						specs[t] = sim.TrialSpec{
							Params:   core.PracticalParams(n, 2),
							Seed:     sim.TrialSeed(uint64(i), t),
							Strategy: func() adversary.Strategy { return adversary.FullJam{} },
							Pool:     func() *energy.Pool { return energy.NewPool(1 << 13) },
						}
					}
					results, err := sim.RunTrials(procs, specs)
					if err != nil {
						b.Fatal(err)
					}
					for _, res := range results {
						slots += res.SlotsSimulated
					}
					trials += trialsPerBatch
				}
				b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/s")
				b.ReportMetric(float64(slots)/b.Elapsed().Seconds(), "slots/s")
			})
		}
	}
}

func benchName(n, procs int) string {
	return fmt.Sprintf("n=%d/procs=%d", n, procs)
}

// BenchmarkStreamTrials measures the streaming session against the
// collect-everything wrapper on the same batch, with -benchmem
// reporting allocs/op and a live_results metric — the O(trials) vs
// O(procs) memory claim as numbers, not assertions. Total allocations
// are dominated by the engine runs and match between variants; the win
// is peak *live* results: collect retains the whole batch, the stream
// variant folds each result into a stats.Acc and drops it, so its peak
// equals the reorder window. The first BENCH_STREAM.json entry records
// one run of this benchmark.
func BenchmarkStreamTrials(b *testing.B) {
	const trialsPerBatch = 64
	// started/released track live results: a result is live from its
	// trial's start (strategy factory — the earliest per-trial hook)
	// until the caller is done with it.
	var started, released, maxLive atomic.Int64
	sampleLive := func() {
		live := started.Add(1) - released.Load()
		for {
			old := maxLive.Load()
			if live <= old || maxLive.CompareAndSwap(old, live) {
				return
			}
		}
	}
	mkSpecs := func(iter int) []sim.TrialSpec {
		specs := make([]sim.TrialSpec, trialsPerBatch)
		for t := range specs {
			specs[t] = sim.TrialSpec{
				Params: core.PracticalParams(256, 2),
				Seed:   sim.TrialSeed(uint64(iter), t),
				Strategy: func() adversary.Strategy {
					sampleLive()
					return adversary.FullJam{}
				},
				Pool: func() *energy.Pool { return energy.NewPool(1 << 12) },
			}
		}
		return specs
	}
	reset := func() { started.Store(0); released.Store(0); maxLive.Store(0) }
	b.Run("collect", func(b *testing.B) {
		b.ReportAllocs()
		reset()
		for i := 0; i < b.N; i++ {
			results, err := sim.RunTrials(0, mkSpecs(i))
			if err != nil {
				b.Fatal(err)
			}
			var informed stats.Acc
			for _, res := range results {
				informed.Add(res.InformedFrac())
				released.Add(1)
			}
			if informed.N() != trialsPerBatch {
				b.Fatal("missing results")
			}
		}
		b.ReportMetric(float64(maxLive.Load()), "live_results")
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		reset()
		for i := 0; i < b.N; i++ {
			fold := sink.NewFold(trialsPerBatch,
				func(r *engine.Result) float64 { return r.InformedFrac() })
			drop := sink.Func(func(int, *engine.Result) error { released.Add(1); return nil })
			if err := sim.Stream(context.Background(), 0, mkSpecs(i), fold, drop); err != nil {
				b.Fatal(err)
			}
			acc := fold.Acc(0, 0)
			if acc.N() != trialsPerBatch {
				b.Fatal("missing results")
			}
		}
		b.ReportMetric(float64(maxLive.Load()), "live_results")
	})
}
