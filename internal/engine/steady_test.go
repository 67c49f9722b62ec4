package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/topology"
)

// steadyKind is one steady-state workload at n=256, k=2: a topology
// and a strategy whose pool is reset to pool units before every trial
// (the full-jam kinds use 4096), or benign — no strategy, no pool.
type steadyKind struct {
	name     string
	spec     topology.Spec
	strategy adversary.Strategy // nil: benign
	pool     int64
}

// gilbert is the sparse steady-state topology. paperPool is the
// gilbert-jam scenario's budget at n=256, which gilbert-random pairs
// with that scenario's p = 0.5 random jam: the paper's pooled budget
// with C = 1 and every device Byzantine.
var (
	gilbert   = topology.Spec{Kind: "gilbert", Radius: 0.25}
	paperPool = energy.DefaultBudgets(1, 2).AdversaryPool(256, 1).Budget()
)

var steadyKinds = []steadyKind{
	{name: "clique", spec: topology.Spec{}, strategy: adversary.FullJam{}, pool: 1 << 12},
	{name: "grid", spec: topology.Spec{Kind: "grid", Reach: 2}, strategy: adversary.FullJam{}, pool: 1 << 12},
	{name: "gilbert", spec: gilbert, strategy: adversary.FullJam{}, pool: 1 << 12},
	{name: "benign-clique", spec: topology.Spec{}},
	{name: "gilbert-random", spec: gilbert, strategy: adversary.RandomJam{P: 0.5}, pool: paperPool},
}

// options returns the kind's Options with pool as its jam budget (unused
// when benign); the caller sets the seed.
func (k steadyKind) options(pool *energy.Pool) Options {
	params := core.PracticalParams(256, 2)
	if !k.spec.IsClique() {
		params.MaxRound = params.StartRound + 2
	}
	o := Options{Params: params, Topology: k.spec}
	if k.strategy != nil {
		o.Strategy, o.Pool = k.strategy, pool
	}
	return o
}

// steadyTrials returns a closure running one steady-state trial of the
// kind on run (Run, or the scalar oracle) with everything a long sweep
// would hoist out of its trial loop (params, pool, scratch) hoisted, so
// the per-trial allocation count is the engine's own.
func steadyTrials(k steadyKind, run func(Options) (*Result, error), fail func(error)) func() {
	pool := energy.NewPool(k.pool)
	base := k.options(pool)
	base.Scratch = NewScratch()
	seed := uint64(0)
	return func() {
		pool.Reset(k.pool)
		o := base
		o.Seed = seed
		res, err := run(o)
		seed++
		if err != nil {
			fail(err)
		}
		if res.N != 256 {
			fail(errBadResult)
		}
	}
}

var errBadResult = fmt.Errorf("engine: bad steady-state result")

// TestSteadyStateAllocs pins the allocation ceiling of a warmed-up
// scratch Run on the batch kernel: the guarantee that the engine's
// steady state allocates nothing beyond the Result it hands out (plus
// the harness's own Options/pool). A regression in any layer — rng
// streams, block schedules, plans, reception index, topology buffers,
// the schedule iterator — fails this gate in CI.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts; CI gates this test in a separate non-race step")
	}
	// Ceiling anatomy (clique): run struct + escaped Options + Result +
	// NodeCosts + cost-sort copy ≈ 5; sparse kinds add the boxed
	// topology value (and gilbert the *Gilbert). The margin on top
	// absorbs occasional committed-send high-water growth on unseen
	// seeds and plan-pool misses after an ill-timed GC — not a per-phase
	// allocation, which would blow past any of these numbers by orders
	// of magnitude.
	// The bytes ceilings gate total heap bytes per warmed trial (measured
	// 5.3-11.4 KiB/op), sized with the same kind of margin. They guard
	// against size regressions the object count cannot see — fewer but
	// much larger allocations. Note the headline BenchmarkEngineRun
	// bytes/op is NOT gated here and not comparable: it varies the seed
	// per iteration with a cold scratch, so it amortizes one-time buffer
	// growth (~540 KiB for gilbert) over the iteration count and moves
	// whenever -benchtime or the scratch's buffer set changes (see the
	// 2026-08-08 BENCH_ENGINE.json methodology note).
	for _, tc := range []struct {
		kind         steadyKind
		ceiling      float64
		bytesCeiling float64
	}{
		{steadyKinds[0], 16, 32 << 10},
		{steadyKinds[1], 24, 48 << 10},
		{steadyKinds[2], 24, 48 << 10},
		{steadyKinds[3], 16, 32 << 10}, // benign clique: the clique anatomy
		{steadyKinds[4], 24, 48 << 10}, // gilbert-random: the gilbert row
	} {
		t.Run(tc.kind.name, func(t *testing.T) {
			trial := steadyTrials(tc.kind, Run, func(err error) { t.Fatal(err) })
			for i := 0; i < 8; i++ { // warm the scratch's high-water marks
				trial()
			}
			allocs := testing.AllocsPerRun(10, trial)
			if allocs > tc.ceiling {
				t.Fatalf("steady-state %s run allocates %.1f objects/op, ceiling %v",
					tc.kind.name, allocs, tc.ceiling)
			}
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				trial()
			}
			runtime.ReadMemStats(&after)
			got := float64(after.TotalAlloc-before.TotalAlloc) / runs
			t.Logf("%.1f objects/op, %.0f bytes/op", allocs, got)
			if got > tc.bytesCeiling {
				t.Fatalf("steady-state %s run allocates %.0f bytes/op, ceiling %v",
					tc.kind.name, got, tc.bytesCeiling)
			}
		})
	}
}

// BenchmarkSteadyState measures the scalar oracle in the post-warmup
// regime the allocation test gates: one scratch per kind, warmed before
// the timer, so ns/op and allocs/op reflect a long sweep's steady state
// rather than first-trial buffer growth. It is the reference cmd/rcbench
// divides BenchmarkSteadyStateBatch's per-trial time by (the
// kernel/scalar ratios in BENCH_ENGINE.json).
func BenchmarkSteadyState(b *testing.B) {
	scalar := func(o Options) (*Result, error) { return RunScalar(context.Background(), o) }
	for _, tc := range steadyKinds {
		b.Run(tc.name, func(b *testing.B) {
			trial := steadyTrials(tc, scalar, func(err error) { b.Fatal(err) })
			for i := 0; i < 8; i++ {
				trial()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trial()
			}
		})
	}
}
