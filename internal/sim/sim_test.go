package sim

import (
	"reflect"
	"testing"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/engine"
)

// TestTrialSeedDisjointAcrossBases asserts the property the SplitMix64
// derivation was adopted for: adjacent base seeds produce disjoint
// trial-seed sets, unlike the old affine scheme base*1_000_003+i, where
// base and base+1 collide on every index pair (i, i+1_000_003).
func TestTrialSeedDisjointAcrossBases(t *testing.T) {
	const trials = 200_000
	for _, base := range []uint64{0, 1, 41, 1 << 32} {
		seen := make(map[uint64]int, 2*trials)
		for i := 0; i < trials; i++ {
			seen[TrialSeed(base, i)] = i
		}
		if len(seen) != trials {
			t.Fatalf("base %d: %d collisions within its own trial-seed set", base, trials-len(seen))
		}
		for i := 0; i < trials; i++ {
			if j, ok := seen[TrialSeed(base+1, i)]; ok {
				t.Fatalf("bases %d and %d collide: trial %d vs trial %d", base, base+1, i, j)
			}
		}
	}
}

func TestTrialSeedDiffersByIndex(t *testing.T) {
	if TrialSeed(7, 0) == TrialSeed(7, 1) {
		t.Fatal("adjacent trial indices must derive different seeds")
	}
}

// TestSweepSeedDisjointAcrossPoints asserts the reason SweepSeed exists:
// adjacent sweep points never share trial seeds, no matter how many
// trials each point runs (stride packing like point*100+trial collides
// as soon as trials exceed the stride).
func TestSweepSeedDisjointAcrossPoints(t *testing.T) {
	const trials = 50_000
	seen := make(map[uint64]bool, 2*trials)
	for _, point := range []int{0, 1} {
		for s := 0; s < trials; s++ {
			seed := SweepSeed(1, point, s)
			if seen[seed] {
				t.Fatalf("seed collision at point %d, trial %d", point, s)
			}
			seen[seed] = true
		}
	}
}

func jamSpecs(n, trials int) []TrialSpec {
	specs := make([]TrialSpec, trials)
	for i := range specs {
		specs[i] = TrialSpec{
			Params:   core.PracticalParams(n, 2),
			Seed:     TrialSeed(1, i),
			Strategy: func() adversary.Strategy { return adversary.FullJam{} },
			Pool:     func() *energy.Pool { return energy.NewPool(1 << 10) },
		}
	}
	return specs
}

// TestRunTrialsMatchesEngineRun pins the runner to the engine: a spec
// produces exactly the Result a direct engine.Run of the same Options
// would.
func TestRunTrialsMatchesEngineRun(t *testing.T) {
	specs := jamSpecs(128, 3)
	got, err := RunTrials(2, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want, err := engine.Run(engine.Options{
			Params:   spec.Params,
			Seed:     spec.Seed,
			Strategy: adversary.FullJam{},
			Pool:     energy.NewPool(1 << 10),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("trial %d diverges from direct engine.Run", i)
		}
	}
}

// TestRunTrialsProcsEquivalence mirrors the engine's Run/RunActors
// equivalence test one layer up: the batch's results are bit-for-bit
// identical however many workers execute it.
func TestRunTrialsProcsEquivalence(t *testing.T) {
	specs := jamSpecs(128, 8)
	want, err := RunTrials(1, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{0, 2, 8} {
		got, err := RunTrials(procs, specs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("procs=%d: results diverge from procs=1", procs)
		}
	}
}

func TestProcsDefault(t *testing.T) {
	if Procs(0) < 1 || Procs(-3) < 1 {
		t.Fatal("non-positive overrides must resolve to at least one worker")
	}
	if Procs(5) != 5 {
		t.Fatal("positive override must be honored")
	}
}
