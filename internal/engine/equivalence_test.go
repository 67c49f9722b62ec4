package engine

import (
	"context"
	"reflect"
	"testing"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
)

// equivalenceConfigs covers the behavioural surface: benign runs, every
// adversary family, budgets, decoys, perturbation, and general k.
func equivalenceConfigs() map[string]func() Options {
	n := 192
	return map[string]func() Options{
		"benign": func() Options {
			return Options{Params: core.PracticalParams(n, 2), Seed: 101, RecordPhases: true}
		},
		"full-jam": func() Options {
			return Options{
				Params:   core.PracticalParams(n, 2),
				Seed:     102,
				Strategy: adversary.FullJam{},
				Pool:     energy.NewPool(15000),
			}
		},
		"phase-blocker": func() Options {
			params := core.PracticalParams(n, 2)
			return Options{
				Params: params,
				Seed:   103,
				Strategy: adversary.PhaseBlocker{
					BlockInform: true, BlockPropagate: true, Params: &params,
				},
				Pool:         energy.NewPool(30000),
				RecordPhases: true,
			}
		},
		"partition": func() Options {
			return Options{
				Params: core.PracticalParams(n, 2),
				Seed:   104,
				Strategy: &adversary.PartitionBlocker{
					Stranded: func(node int) bool { return node%16 == 0 },
				},
			}
		},
		"spoofer": func() Options {
			return Options{
				Params:   core.PracticalParams(n, 2),
				Seed:     105,
				Strategy: &adversary.NackSpoofer{Rate: 0.4, MaxRounds: 2},
			}
		},
		"reactive-decoy": func() Options {
			params := core.PracticalParams(n, 2)
			params.Decoy = true
			params.DecoyProb = 0.75 / float64(n)
			params.ListenBoost = 4
			return Options{
				Params:        params,
				Seed:          106,
				Strategy:      adversary.ReactiveJammer{},
				Pool:          energy.NewPool(15000),
				AllowReactive: true,
			}
		},
		"budgets": func() Options {
			return Options{
				Params:      core.PracticalParams(n, 2),
				Seed:        107,
				NodeBudget:  40,
				AliceBudget: 500,
			}
		},
		"perturb": func() Options {
			return Options{
				Params: core.PracticalParams(n, 2),
				Seed:   108,
				Perturb: func(node int) (float64, float64) {
					return 1 + float64(node%3)/2, 1 / (1 + float64(node%2)) // deterministic
				},
			}
		},
		"k3": func() Options {
			return Options{Params: core.PracticalParams(n, 3), Seed: 109}
		},
		"random-jam": func() Options {
			return Options{
				Params:   core.PracticalParams(n, 2),
				Seed:     110,
				Strategy: adversary.RandomJam{P: 0.3},
				Pool:     energy.NewPool(20000),
			}
		},
		"bursty": func() Options {
			return Options{
				Params:   core.PracticalParams(n, 2),
				Seed:     111,
				Strategy: adversary.Bursty{Burst: 16, Gap: 16},
				Pool:     energy.NewPool(20000),
			}
		},
	}
}

// TestEngineEquivalence asserts that Run (the batch kernel) and the
// scalar oracle produce bit-for-bit identical results: same informed
// sets, same per-node costs, same adversary spend, same phase records.
func TestEngineEquivalence(t *testing.T) {
	for name, mk := range equivalenceConfigs() {
		t.Run(name, func(t *testing.T) {
			kernel, err := Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			scalar, err := RunScalar(context.Background(), mk())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(kernel, scalar) {
				t.Fatalf("engines diverged:\nkernel: %+v\nscalar: %+v", kernel, scalar)
			}
		})
	}
}

// TestRunScalarBasics: the oracle itself delivers a benign run.
func TestRunScalarBasics(t *testing.T) {
	res, err := RunScalar(context.Background(), Options{Params: core.PracticalParams(256, 2), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 256 || !res.Completed {
		t.Fatalf("scalar oracle benign run: %+v", res)
	}
}

func TestRunScalarRejectsInvalidOptions(t *testing.T) {
	opts := Options{Params: core.PracticalParams(128, 2)}
	opts.Params.N = 0
	if _, err := RunScalar(context.Background(), opts); err == nil {
		t.Fatal("invalid options must be rejected")
	}
}
