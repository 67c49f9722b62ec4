package engine

import (
	"context"
	"math"
	"reflect"
	"testing"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/topology"
)

// TestCompleteGilbertMatchesCliqueFastPath is the kernel-unification
// guarantee: a Gilbert graph with radius √2 spans the unit square, so
// every device hears every other — but Complete() stays false, forcing
// per-record audibility checks against the graph. Results must be
// bit-for-bit identical to the clique's, whose buckets the kernel
// resolves by length alone, across the behavioural surface
// (adversaries, budgets, decoys, perturbation, general k).
func TestCompleteGilbertMatchesCliqueFastPath(t *testing.T) {
	for name, mk := range equivalenceConfigs() {
		t.Run(name, func(t *testing.T) {
			clique, err := Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			opts := mk()
			opts.Topology = topology.Spec{Kind: "gilbert", Radius: math.Sqrt2}
			sparse, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(clique, sparse) {
				t.Fatalf("per-record resolution diverged from the clique:\nclique: %+v\nsparse: %+v", clique, sparse)
			}
		})
	}
}

// TestExplicitCliqueSpecByteIdentical pins the satellite guarantee: a
// scenario that says `"topology": {"kind": "clique"}` runs the exact
// pre-topology engine.
func TestExplicitCliqueSpecByteIdentical(t *testing.T) {
	for name, mk := range equivalenceConfigs() {
		t.Run(name, func(t *testing.T) {
			implicit, err := Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			opts := mk()
			opts.Topology = topology.Spec{Kind: "clique"}
			explicit, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(implicit, explicit) {
				t.Fatal("explicit clique spec diverged from the default")
			}
		})
	}
}

// TestCoveringGridUsesFastPath: a grid whose reach spans the lattice is
// a complete graph, and the engine must notice and resolve it as the
// clique, with no graph behind its buckets — byte-identical to the
// clique.
func TestCoveringGridUsesFastPath(t *testing.T) {
	mk := func() Options {
		return Options{
			Params:   core.PracticalParams(64, 2),
			Seed:     21,
			Strategy: adversary.FullJam{},
			Pool:     energy.NewPool(4000),
		}
	}
	clique, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	opts := mk()
	opts.Topology = topology.Spec{Kind: "grid", Reach: 8}
	covering, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clique, covering) {
		t.Fatal("covering grid diverged from the clique")
	}
}

// TestEnginesAgreeOnSparseTopologies extends the kernel-vs-scalar
// bit-for-bit guarantee to the sparse resolution path.
func TestEnginesAgreeOnSparseTopologies(t *testing.T) {
	for name, spec := range map[string]topology.Spec{
		"grid":    {Kind: "grid", Reach: 2},
		"gilbert": {Kind: "gilbert", Radius: 0.3},
	} {
		t.Run(name, func(t *testing.T) {
			mk := func() Options {
				params := core.PracticalParams(128, 2)
				params.MaxRound = params.StartRound + 2
				return Options{
					Params:       params,
					Seed:         31,
					Topology:     spec,
					Strategy:     adversary.RandomJam{P: 0.25},
					Pool:         energy.NewPool(10000),
					RecordPhases: true,
				}
			}
			kernel, err := Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			scalar, err := RunScalar(context.Background(), mk())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(kernel, scalar) {
				t.Fatalf("engines diverged on %s", name)
			}
		})
	}
}

// TestGridWaveStopsAtKHops pins the honest limitation DESIGN.md §9
// documents: the unmodified single-hop protocol informs exactly the
// ≤k-hop neighborhood of Alice — nodes informed in the final
// propagation step never relay — so a broadcast on a big lattice
// reaches the k-ring and stops. (The multihop pipeline exists to go
// further.)
func TestGridWaveStopsAtKHops(t *testing.T) {
	params := core.PracticalParams(144, 2) // 12x12
	params.MaxRound = params.StartRound + 2
	spec := topology.Spec{Kind: "grid"}
	res, err := Run(Options{Params: params, Seed: 5, Topology: spec})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := spec.Build(144, 5)
	if err != nil {
		t.Fatal(err)
	}
	ceiling := topology.ReachableWithin(topo, params.K) // 3x3 corner block = 9
	if res.Informed > ceiling {
		t.Fatalf("informed %d beyond the %d-hop ceiling %d", res.Informed, params.K, ceiling)
	}
	// The ball is informed up to relay luck: ring 1 hears Alice across
	// every round, but each ring-1 node relays in exactly one
	// propagation phase (then terminates), so an outer-ring node can
	// miss its only chance. Nearly all of the ball is informed.
	if res.Informed < ceiling-2 {
		t.Fatalf("informed %d, want ≥ %d of the %d-hop ball %d", res.Informed, ceiling-2, params.K, ceiling)
	}
	// A larger k pushes the wave further on the same lattice.
	params3 := core.PracticalParams(144, 3)
	params3.MaxRound = params3.StartRound + 2
	res3, err := Run(Options{Params: params3, Seed: 5, Topology: spec})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Informed <= res.Informed {
		t.Fatalf("k=3 wave (%d) must outreach k=2 (%d)", res3.Informed, res.Informed)
	}
}

// TestGilbertDeliveryTracksReachableSet: on a random geometric graph,
// delivery is bounded by — and in benign runs achieves — the k-hop
// reachable set of Alice.
func TestGilbertDeliveryTracksReachableSet(t *testing.T) {
	params := core.PracticalParams(128, 2)
	params.MaxRound = params.StartRound + 2
	spec := topology.Spec{Kind: "gilbert", Radius: 0.25}
	res, err := Run(Options{Params: params, Seed: 77, Topology: spec})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := spec.Build(128, 77)
	if err != nil {
		t.Fatal(err)
	}
	ceiling := topology.ReachableWithin(topo, params.K)
	if ceiling == 0 || ceiling == 128 {
		t.Fatalf("test wants a nontrivial reachable set, got %d", ceiling)
	}
	if res.Informed > ceiling {
		t.Fatalf("informed %d beyond reachable ceiling %d", res.Informed, ceiling)
	}
	if float64(res.Informed) < 0.9*float64(ceiling) {
		t.Fatalf("informed %d, want ~all of the reachable %d", res.Informed, ceiling)
	}
}

// TestScratchReuseByteIdentical: a Scratch carried across runs of
// different sizes, topologies and adversaries must never change any
// result.
func TestScratchReuseByteIdentical(t *testing.T) {
	bounded := func(n, k int) core.Params {
		p := core.PracticalParams(n, k)
		p.MaxRound = p.StartRound + 2
		return p
	}
	configs := []func() Options{
		func() Options {
			return Options{Params: core.PracticalParams(128, 2), Seed: 1,
				Strategy: adversary.FullJam{}, Pool: energy.NewPool(8000), RecordPhases: true}
		},
		func() Options { // smaller n: scratch shrinks
			return Options{Params: core.PracticalParams(64, 2), Seed: 2}
		},
		func() Options { // sparse topology reusing the same scratch
			return Options{Params: bounded(96, 2), Seed: 3,
				Topology: topology.Spec{Kind: "gilbert", Radius: 0.4}}
		},
		func() Options { // larger n: scratch regrows
			return Options{Params: core.PracticalParams(192, 2), Seed: 4,
				NodeBudget: 60, AliceBudget: 800}
		},
		func() Options {
			return Options{Params: bounded(96, 2), Seed: 5,
				Topology: topology.Spec{Kind: "grid", Reach: 2},
				Strategy: adversary.RandomJam{P: 0.3}, Pool: energy.NewPool(5000)}
		},
	}
	var fresh []*Result
	for _, mk := range configs {
		res, err := Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, res)
	}
	scratch := NewScratch()
	for round := 0; round < 2; round++ { // reuse the scratch twice over
		for i, mk := range configs {
			opts := mk()
			opts.Scratch = scratch
			res, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, fresh[i]) {
				t.Fatalf("round %d config %d: scratch reuse changed the result", round, i)
			}
		}
	}
}

// BenchmarkEngineRun measures one full protocol execution per topology
// kind, on a fresh scratch per run and on one reused scratch — allocs/op
// is the headline (BENCH_ENGINE.json records one run).
func BenchmarkEngineRun(b *testing.B) {
	mk := func(spec topology.Spec, seed uint64) Options {
		params := core.PracticalParams(256, 2)
		if !spec.IsClique() {
			params.MaxRound = params.StartRound + 2
		}
		return Options{
			Params:   params,
			Seed:     seed,
			Topology: spec,
			Strategy: adversary.FullJam{},
			Pool:     energy.NewPool(1 << 12),
		}
	}
	for _, tc := range []struct {
		name string
		spec topology.Spec
	}{
		{"clique", topology.Spec{}},
		{"grid", topology.Spec{Kind: "grid", Reach: 2}},
		{"gilbert", topology.Spec{Kind: "gilbert", Radius: 0.25}},
	} {
		b.Run(tc.name+"/fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := mk(tc.spec, uint64(i))
				opts.Scratch = NewScratch() // not Run's pooled one
				if _, err := Run(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/scratch", func(b *testing.B) {
			b.ReportAllocs()
			scratch := NewScratch()
			for i := 0; i < b.N; i++ {
				opts := mk(tc.spec, uint64(i))
				opts.Scratch = scratch
				if _, err := Run(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
