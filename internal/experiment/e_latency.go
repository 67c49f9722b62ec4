package experiment

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"rcbcast/internal/engine"
	"rcbcast/internal/scenario"
	"rcbcast/internal/sim"
	"rcbcast/internal/sim/sink"
	"rcbcast/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E4",
		Title: "Worst-case latency scaling",
		Claim: "Theorem 1 / Corollary 1: termination within O(n^{1+1/k}) slots, which is asymptotically optimal",
		Run:   runE4,
	})
	register(Experiment{
		ID:    "E11",
		Title: "Engine ablation: batch kernel vs scalar oracle",
		Claim: "the batch kernel is bit-for-bit equivalent to the scalar reference loop (DESIGN.md §5)",
		Run:   runE11,
	})
}

func runE4(cfg Config) (*Report, error) {
	rep := newReport("E4", "Worst-case latency scaling",
		"slots-to-completion under a maximally-blocking budget-respecting Carol scales as n^{1+1/k}")
	seeds := cfg.seeds(3, 2)
	ns := []int{256, 512, 1024, 2048}
	if cfg.Quick {
		ns = []int{128, 256, 512}
	}
	k := 2
	tbl := stats.NewTable(
		fmt.Sprintf("E4: latency vs n (k=%d, phase-blocking Carol with paper budget f=1)", k),
		"n", "slots", "rounds", "informed frac", "n^{1+1/k}")
	specs := make([]sim.TrialSpec, 0, len(ns)*seeds)
	for ni, n := range ns {
		sc := scenario.Scenario{
			N: n, K: k,
			Adversary: scenario.AdversarySpec{Kind: "blocker", Inform: true, Propagate: true},
			Budget:    scenario.BudgetSpec{ModelC: 1, ModelF: 1},
		}
		for s := 0; s < seeds; s++ {
			ts, err := sc.TrialSpec(cfg.seedAt(4000+ni, s))
			if err != nil {
				return nil, err
			}
			specs = append(specs, ts)
		}
	}
	fold := sink.NewFold(seeds,
		func(r *engine.Result) float64 { return float64(r.SlotsSimulated) },
		func(r *engine.Result) float64 { return float64(r.Rounds) },
		func(r *engine.Result) float64 { return r.InformedFrac() },
	)
	if err := sim.Stream(cfg.ctx(), cfg.Procs, specs, fold); err != nil {
		return nil, err
	}
	var xs, ys []float64
	for ni, n := range ns {
		tbl.AddRowf(n, fold.Mean(ni, 0), fold.Mean(ni, 1), fold.Mean(ni, 2),
			math.Pow(float64(n), 1+1/float64(k)))
		xs = append(xs, float64(n))
		ys = append(ys, fold.Mean(ni, 0))
	}
	rep.Tables = append(rep.Tables, tbl)
	fit := stats.FitPowerLaw(xs, ys)
	rep.Values["latency_exponent"] = fit.Exponent
	rep.Values["predicted_exponent"] = 1 + 1/float64(k)
	rep.addFinding("latency %v (prediction n^{%.2f}; Corollary 1 shows this is optimal)", fit, 1+1/float64(k))
	return rep, nil
}

func runE11(cfg Config) (*Report, error) {
	rep := newReport("E11", "Engine ablation: batch kernel vs scalar oracle",
		"identical seeds yield identical results; the kernel reproduces the scalar reference loop bit for bit")
	n := cfg.n(1024, 256)
	// Build fresh options per engine: pools are stateful, and the point
	// of the ablation is that one scenario value drives both executors.
	sc := scenario.Scenario{
		N: n, K: 2,
		Seed:      cfg.seed(11_000),
		Adversary: scenario.AdversarySpec{Kind: "full"},
		Budget:    scenario.BudgetSpec{Pool: 1 << 14},
	}
	kernelOpts, err := sc.Build()
	if err != nil {
		return nil, err
	}
	scalarOpts, err := sc.Build()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	kernel, err := engine.RunContext(cfg.ctx(), kernelOpts)
	if err != nil {
		return nil, err
	}
	kernelD := time.Since(t0)
	t1 := time.Now()
	scalar, err := engine.RunScalar(cfg.ctx(), scalarOpts)
	if err != nil {
		return nil, err
	}
	scalarD := time.Since(t1)
	equal := reflect.DeepEqual(kernel, scalar)
	// Wall times go into Values only (kernel_ns/scalar_ns): the rendered
	// table and findings must be byte-identical across runs and Procs
	// settings; BenchmarkE11Engines measures the timing properly.
	tbl := stats.NewTable(
		fmt.Sprintf("E11: engine comparison (n=%d, jammer pool 2^14)", n),
		"engine", "slots", "informed", "alice cost", "identical results")
	tbl.AddRowf("kernel", kernel.SlotsSimulated, kernel.Informed, kernel.Alice.Cost, equal)
	tbl.AddRowf("scalar", scalar.SlotsSimulated, scalar.Informed, scalar.Alice.Cost, equal)
	rep.Tables = append(rep.Tables, tbl)
	rep.Values["identical"] = b2f(equal)
	rep.Values["kernel_ns"] = float64(kernelD.Nanoseconds())
	rep.Values["scalar_ns"] = float64(scalarD.Nanoseconds())
	if !equal {
		rep.addFinding("ENGINES DIVERGED — this is a bug")
	} else {
		rep.addFinding("kernel and scalar oracle bit-for-bit equivalent on %d simulated slots (timings: Values kernel_ns/scalar_ns, BenchmarkE11Engines)", kernel.SlotsSimulated)
	}
	return rep, nil
}
