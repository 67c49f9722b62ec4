package scenario

import (
	"strings"
	"testing"
)

func shardTestScenario() Scenario {
	return Scenario{
		Name:      "shard-test",
		N:         32,
		Adversary: AdversarySpec{Kind: "full"},
		Budget:    BudgetSpec{Pool: 256},
	}
}

func TestShardValidate(t *testing.T) {
	cases := []struct {
		sh     Shard
		trials int
		ok     bool
	}{
		{Shard{}, 10, true}, // zero shard = whole sweep
		{Shard{Lo: 0, Hi: 10}, 10, true},
		{Shard{Lo: 3, Hi: 7}, 10, true},
		{Shard{Lo: -1, Hi: 5}, 10, false},
		{Shard{Lo: 5, Hi: 5}, 10, false},
		{Shard{Lo: 7, Hi: 3}, 10, false},
		{Shard{Lo: 0, Hi: 11}, 10, false},
	}
	for _, tc := range cases {
		err := tc.sh.Validate(tc.trials)
		if (err == nil) != tc.ok {
			t.Errorf("Shard%s.Validate(%d) = %v, want ok=%v", tc.sh, tc.trials, err, tc.ok)
		}
	}
	if s := (Shard{Lo: 2, Hi: 5}).String(); s != "[2,5)" {
		t.Fatalf("String() = %q", s)
	}
}

func TestCutShard(t *testing.T) {
	// The i/N cuts tile [0, trials) exactly, in order.
	for _, trials := range []int{1, 3, 7, 10, 100} {
		for n := 1; n <= trials; n++ {
			next := 0
			for i := 0; i < n; i++ {
				sh, err := CutShard(trials, i, n)
				if err != nil {
					t.Fatalf("CutShard(%d, %d, %d): %v", trials, i, n, err)
				}
				if sh.Lo != next || sh.Len() <= 0 {
					t.Fatalf("CutShard(%d, %d, %d) = %s, want start %d", trials, i, n, sh, next)
				}
				next = sh.Hi
			}
			if next != trials {
				t.Fatalf("CutShard(%d, _, %d) covers [0,%d)", trials, n, next)
			}
		}
	}
	for _, tc := range []struct{ trials, i, n int }{
		{10, -1, 3}, {10, 3, 3}, {10, 0, 0}, {3, 0, 5},
	} {
		if _, err := CutShard(tc.trials, tc.i, tc.n); err == nil {
			t.Errorf("CutShard(%d, %d, %d) accepted", tc.trials, tc.i, tc.n)
		}
	}
	// More shards than trials: the empty cut names the usable maximum.
	_, err := CutShard(3, 0, 5)
	if err == nil || !strings.Contains(err.Error(), "at most 3 shards") {
		t.Fatalf("empty cut error = %v", err)
	}
}

// TestShardSpecsSliceOfWhole pins the identity everything distributed
// rests on: ShardSpecs is exactly the whole sweep's specs[lo:hi] — same
// seeds, same protocol instance — for every shard of the sweep.
func TestShardSpecsSliceOfWhole(t *testing.T) {
	sc := shardTestScenario()
	const base, trials = 99, 11
	whole, err := sc.ShardSpecs(base, 0, trials, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range []Shard{{}, {Lo: 0, Hi: trials}, {Lo: 0, Hi: 4}, {Lo: 4, Hi: 9}, {Lo: 10, Hi: 11}} {
		specs, err := sc.ShardSpecs(base, 0, trials, sh)
		if err != nil {
			t.Fatalf("ShardSpecs(%s): %v", sh, err)
		}
		lo, hi := sh.Lo, sh.Hi
		if sh.IsZero() {
			lo, hi = 0, trials
		}
		if len(specs) != hi-lo {
			t.Fatalf("ShardSpecs(%s) has %d specs, want %d", sh, len(specs), hi-lo)
		}
		for i, spec := range specs {
			if spec.Seed != whole[lo+i].Seed {
				t.Fatalf("shard %s spec %d seed %#x, want %#x", sh, i, spec.Seed, whole[lo+i].Seed)
			}
			if spec.Params != whole[lo+i].Params {
				t.Fatalf("shard %s spec %d params diverge", sh, i)
			}
		}
	}
	if _, err := sc.ShardSpecs(base, 0, trials, Shard{Lo: 5, Hi: 20}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}
