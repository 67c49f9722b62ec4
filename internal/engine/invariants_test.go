package engine

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
)

// randomOptions derives a small but varied protocol configuration from
// fuzz bytes: network size, k, adversary family, pool size, budgets,
// decoys — the whole option surface at sizes that run in milliseconds.
func randomOptions(seed uint64, a, b, c, d uint8) Options {
	n := 32 + int(a%4)*32 // 32..128
	k := 2 + int(b%3)     // 2..4
	params := core.PracticalParams(n, k)
	params.MaxRound = params.StartRound + 2 // bound every run
	if d%4 == 0 {
		params.Decoy = true
		params.DecoyProb = 0.75 / float64(n)
		params.ListenBoost = 4
	}
	opts := Options{Params: params, Seed: seed}
	switch c % 6 {
	case 0:
		opts.Strategy = adversary.Null{}
	case 1:
		opts.Strategy = adversary.FullJam{}
	case 2:
		opts.Strategy = adversary.RandomJam{P: 0.3}
	case 3:
		opts.Strategy = &adversary.NackSpoofer{Rate: 0.4}
	case 4:
		limit := n / 8
		opts.Strategy = &adversary.PartitionBlocker{
			Stranded: func(node int) bool { return node < limit },
		}
	case 5:
		opts.Strategy = adversary.ReactiveJammer{}
		opts.AllowReactive = true
	}
	pool := int64(d%8) * 512 // 0..3584; 0 keeps Pool nil (unlimited)
	if pool > 0 {
		opts.Pool = energy.NewPool(pool)
	}
	if d%3 == 0 {
		opts.NodeBudget = int64(50 + int(a)*4)
		opts.AliceBudget = int64(500 + int(b)*16)
	}
	return opts
}

// TestProtocolInvariants property-checks the conservation laws every
// execution must satisfy, regardless of adversary or budgets:
//
//  1. node dispositions partition the network,
//  2. nobody overspends a budget,
//  3. Carol never exceeds her pool, and her reported spend matches it,
//  4. informed nodes only exist if somebody transmitted data,
//  5. Completed implies nobody is left active,
//  6. latency covers at least the executed rounds.
func TestProtocolInvariants(t *testing.T) {
	f := func(seed uint64, a, b, c, d uint8) bool {
		opts := randomOptions(seed, a, b, c, d)
		res, err := Run(opts)
		if err != nil {
			t.Logf("run error: %v", err)
			return false
		}

		// (1) Disposition partition: informed nodes are terminated or
		// dead (they never outlive their round); the rest are stranded,
		// dead, or active.
		if res.Informed+res.Stranded+res.Dead+res.ActiveAtEnd < res.N {
			t.Logf("dispositions undercount: %+v", res)
			return false
		}

		// (2) Budgets.
		if opts.NodeBudget > 0 {
			for id, cost := range res.NodeCosts {
				if cost > opts.NodeBudget {
					t.Logf("node %d overspent: %d > %d", id, cost, opts.NodeBudget)
					return false
				}
			}
		}
		if opts.AliceBudget > 0 && res.Alice.Cost > opts.AliceBudget {
			t.Logf("alice overspent: %d", res.Alice.Cost)
			return false
		}

		// (3) Adversary pool.
		if opts.Pool != nil {
			if res.AdversarySpent > opts.Pool.Budget() {
				t.Logf("adversary overspent: %d > %d", res.AdversarySpent, opts.Pool.Budget())
				return false
			}
			if res.AdversarySpent != opts.Pool.Spent() {
				t.Logf("spend mismatch: result %d pool %d", res.AdversarySpent, opts.Pool.Spent())
				return false
			}
		}
		if res.AdversarySpent != res.AdversaryJams+res.AdversaryInjections {
			t.Logf("spend split mismatch: %+v", res)
			return false
		}

		// (4) Information comes from somewhere: informed > 0 requires
		// Alice to have sent at least once.
		if res.Informed > 0 && res.Alice.Sends == 0 {
			t.Logf("nodes informed without any Alice transmission")
			return false
		}

		// (5) Completion semantics.
		if res.Completed && (res.ActiveAtEnd != 0 || (!res.Alice.Terminated && !res.Alice.Dead)) {
			t.Logf("completed but devices still active: %+v", res)
			return false
		}

		// (6) Latency sanity.
		if res.SlotsSimulated <= 0 || res.Rounds < opts.Params.StartRound {
			t.Logf("latency nonsense: slots=%d rounds=%d", res.SlotsSimulated, res.Rounds)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineEquivalenceProperty extends the fixed-configuration
// kernel-vs-scalar equivalence suite with randomized configurations.
func TestEngineEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed uint64, a, b, c, d uint8) bool {
		// Pools are stateful; build fresh options per engine.
		kernel, err := Run(randomOptions(seed, a, b, c, d))
		if err != nil {
			return false
		}
		scalar, err := RunScalar(context.Background(), randomOptions(seed, a, b, c, d))
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(kernel, scalar) {
			t.Logf("engines diverged:\nkernel: %+v\nscalar: %+v", kernel, scalar)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDispositionExact pins the partition law exactly: informed nodes are
// never double-counted with stranded ones.
func TestDispositionExact(t *testing.T) {
	res, err := Run(Options{
		Params: core.PracticalParams(256, 2),
		Seed:   83,
		Strategy: &adversary.PartitionBlocker{
			Stranded: func(node int) bool { return node < 16 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed+res.Stranded+res.Dead+res.ActiveAtEnd != res.N {
		t.Fatalf("dispositions must partition exactly here: %+v", res)
	}
}
