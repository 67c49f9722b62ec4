package scenario

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/engine"
	"rcbcast/internal/sim"
)

// quickScenario bounds a scenario to test scale.
func quickScenario(sc Scenario) Scenario {
	sc.N = 64
	if sc.Overrides.ExtraRounds == 0 && sc.Overrides.MaxRound == 0 {
		sc.Overrides.ExtraRounds = 6
	}
	return sc
}

func TestScenarioJSONRoundTripByteStable(t *testing.T) {
	cases := []Scenario{
		{N: 128, K: 2, Seed: 7, Adversary: AdversarySpec{Kind: "full"}, Budget: BudgetSpec{Pool: 4096}},
		{N: 64, Decoy: true, Reactive: true, Adversary: AdversarySpec{Kind: "reactive"},
			Budget: BudgetSpec{ModelC: 8, ModelF: 1.0 / 25}, Overrides: Overrides{ExtraRounds: 8}},
		{N: 256, K: 3, Paper: true, Quiet: "fraction", Engine: "actors", RecordPhases: true,
			Adversary: AdversarySpec{Kind: "composite", Parts: []AdversarySpec{
				{Kind: "blocker", Inform: true, Propagate: true},
				{Kind: "spoofer", P: 0.3},
			}}},
	}
	for _, e := range All() {
		cases = append(cases, e.Scenario)
	}
	for _, sc := range cases {
		first, err := Encode(sc)
		if err != nil {
			t.Fatalf("encode %q: %v", sc.Name, err)
		}
		decoded, err := Decode(first)
		if err != nil {
			t.Fatalf("decode %q: %v\n%s", sc.Name, err, first)
		}
		second, err := Encode(decoded)
		if err != nil {
			t.Fatalf("re-encode %q: %v", sc.Name, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("encode→decode→encode not byte-stable for %q:\n--- first\n%s\n--- second\n%s",
				sc.Name, first, second)
		}
		if !reflect.DeepEqual(sc, decoded) {
			t.Errorf("decode(%q) lost information:\n  in:  %+v\n  out: %+v", sc.Name, sc, decoded)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode([]byte(`{"n": 64, "adversarry": {"kind": "full"}}`)); err == nil {
		t.Fatal("typo'd field must be rejected")
	}
}

// TestBuildAppliesParamsBeforeOptions is the regression test for the
// cmd/rcbcast bug where -adversary reactive mutated params.MaxRound
// *after* opts.Params had been assigned: the scenario layer must
// resolve every parameter effect before options assembly, so the
// engine sees the bounded round count and the reactive grant together.
func TestBuildAppliesParamsBeforeOptions(t *testing.T) {
	sc := Scenario{
		N:         64,
		Adversary: AdversarySpec{Kind: "reactive"},
		Overrides: Overrides{ExtraRounds: 6},
	}
	opts, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !opts.AllowReactive {
		t.Error("reactive kind must imply AllowReactive")
	}
	if want := opts.Params.StartRound + 6; opts.Params.MaxRound != want {
		t.Errorf("opts.Params.MaxRound = %d, want StartRound+6 = %d (param effects must precede options assembly)",
			opts.Params.MaxRound, want)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > opts.Params.MaxRound {
		t.Errorf("run ignored the round bound: ran to round %d, cap %d", res.Rounds, opts.Params.MaxRound)
	}
}

// TestBuildMatchesHandRolledOptions pins the conversion layer against
// hand-assembled engine.Options: identical results, bit for bit.
func TestBuildMatchesHandRolledOptions(t *testing.T) {
	sc := Scenario{
		N: 96, K: 2, Seed: 11, Decoy: true,
		Adversary: AdversarySpec{Kind: "random", P: 0.4},
		Budget:    BudgetSpec{Pool: 2048, DeviceC: 8},
	}
	got, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}

	params := core.PracticalParams(96, 2)
	params.EnableDecoy()
	bm := energy.DefaultBudgets(8, 2)
	want, err := engine.Run(engine.Options{
		Params:      params,
		Seed:        11,
		Strategy:    adversary.RandomJam{P: 0.4},
		Pool:        energy.NewPool(2048),
		NodeBudget:  bm.Node(96),
		AliceBudget: bm.Alice(96),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scenario run diverged from hand-rolled options:\n got %+v\nwant %+v", got, want)
	}
}

// TestTrialSpecMatchesBuild asserts the two conversion paths agree:
// running a scenario's TrialSpec through the parallel runner equals
// running its Build output directly.
func TestTrialSpecMatchesBuild(t *testing.T) {
	for _, name := range []string{"full-jam", "nack-spoofer", "reactive-decoy", "budgeted-full"} {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("missing named scenario %q", name)
		}
		sc = quickScenario(sc)
		sc.Seed = 5
		direct, err := sc.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ts, err := sc.TrialSpec(5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		viaSim, err := sim.RunTrials(1, []sim.TrialSpec{ts})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(direct, viaSim[0]) {
			t.Errorf("%s: TrialSpec and Build runs diverged", name)
		}
	}
}

func TestTrialSpecsSeeding(t *testing.T) {
	sc := quickScenario(Scenario{Adversary: AdversarySpec{Kind: "full"}, Budget: BudgetSpec{Pool: 1024}})
	specs, err := sc.ShardSpecs(9, 3, 4, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("want 4 specs, got %d", len(specs))
	}
	for i, ts := range specs {
		if want := sim.SweepSeed(9, 3, i); ts.Seed != want {
			t.Errorf("spec %d seed = %d, want %d", i, ts.Seed, want)
		}
	}
}

// TestEnginesAgreeOnScenario: Engine is decoded but ignored, so the
// legacy names run the same trial.
func TestEnginesAgreeOnScenario(t *testing.T) {
	sc := quickScenario(Scenario{Seed: 3, Adversary: AdversarySpec{Kind: "bursty", Burst: 32, Gap: 32}, Budget: BudgetSpec{Pool: 1024}})
	fast, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	sc.Engine = "actors"
	actors, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, actors) {
		t.Error("fast and actors engines diverged on the same scenario")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]Scenario{
		"missing n":         {Adversary: AdversarySpec{Kind: "full"}},
		"unknown kind":      {N: 64, Adversary: AdversarySpec{Kind: "warp"}},
		"bad p":             {N: 64, Adversary: AdversarySpec{Kind: "random", P: 1.5}},
		"bad strand":        {N: 64, Adversary: AdversarySpec{Kind: "partition", Strand: 1.5}},
		"bursty no knobs":   {N: 64, Adversary: AdversarySpec{Kind: "bursty"}}, // data specs are explicit; no silent defaults
		"zero-rate spoofer": {N: 64, Adversary: AdversarySpec{Kind: "spoofer"}},
		"empty composite":   {N: 64, Adversary: AdversarySpec{Kind: "composite"}},
		"reactive in composite": {N: 64, Adversary: AdversarySpec{Kind: "composite", Parts: []AdversarySpec{
			{Kind: "reactive"}, {Kind: "full"},
		}}},
		"parts on non-comp":      {N: 64, Adversary: AdversarySpec{Kind: "full", Parts: []AdversarySpec{{Kind: "null"}}}},
		"pool and model":         {N: 64, Budget: BudgetSpec{Pool: 10, ModelC: 1}},
		"negative pool":          {N: 64, Budget: BudgetSpec{Pool: -1}},
		"model_f alone":          {N: 64, Budget: BudgetSpec{ModelF: 0.5}},
		"model_f not a fraction": {N: 64, Budget: BudgetSpec{ModelC: 8, ModelF: 25}}, // 25 ≠ 1/25
		"knob on wrong kind":     {N: 64, Adversary: AdversarySpec{Kind: "full", P: 0.9}},
		"strand on bursty":       {N: 64, Adversary: AdversarySpec{Kind: "bursty", Burst: 8, Gap: 8, Strand: 0.5}},
		"knob on composite":      {N: 64, Adversary: AdversarySpec{Kind: "composite", P: 0.5, Parts: []AdversarySpec{{Kind: "full"}}}},
		"bad engine":             {N: 64, Engine: "warp"},
		"bad quiet":              {N: 64, Quiet: "sometimes"},
		"max and extra":          {N: 64, Overrides: Overrides{MaxRound: 9, ExtraRounds: 2}},
		"bad k":                  {N: 64, K: 1},
		"negative batch":         {N: 64, Batch: -4},
	}
	for name, sc := range cases {
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", name)
		}
	}
}

func TestParamsOverrides(t *testing.T) {
	sc := Scenario{
		N: 100, K: 2, Decoy: true, Quiet: "absolute",
		Overrides: Overrides{
			Epsilon: 0.25, C: 2, StartRound: 3, MaxRound: 9,
			DecoyProb: 0.01, ListenBoost: 2,
			LnScale: 2, NScale: 0.5, PolyEstimate: 10000, QuietFrac: 0.125,
		},
	}
	p, err := sc.Params()
	if err != nil {
		t.Fatal(err)
	}
	base := core.PracticalParams(100, 2)
	if p.Epsilon != 0.25 || p.C != 2 || p.StartRound != 3 || p.MaxRound != 9 {
		t.Errorf("scalar overrides not applied: %+v", p)
	}
	if p.Quiet != core.QuietAbsolute {
		t.Errorf("quiet override not applied: %v", p.Quiet)
	}
	if !p.Decoy || p.DecoyProb != 0.01 || p.ListenBoost != 2 {
		t.Errorf("decoy overrides not applied: %+v", p)
	}
	if want := 2 * base.LnN(); p.LnOverride != want {
		t.Errorf("LnOverride = %v, want %v", p.LnOverride, want)
	}
	if p.NOverride != 50 || p.PolyEstimate != 10000 || p.QuietFrac != 0.125 {
		t.Errorf("§4.2 overrides not applied: %+v", p)
	}
}

func TestEnableDecoyConstants(t *testing.T) {
	p := core.PracticalParams(128, 2)
	p.EnableDecoy()
	if !p.Decoy || p.DecoyProb != 0.75/128 || p.ListenBoost != 4 {
		t.Errorf("EnableDecoy constants drifted: %+v", p)
	}
}

// TestScenarioStream drives the streaming façade: trials delivered in
// order with the ShardSpecs seed derivation, identical across procs.
func TestScenarioStream(t *testing.T) {
	sc := Scenario{
		N: 64, K: 2,
		Adversary: AdversarySpec{Kind: "full"},
		Budget:    BudgetSpec{Pool: 1 << 10},
	}
	render := func(procs int) []int64 {
		var spents []int64
		err := sc.Stream(context.Background(), procs, 1, 0, 6,
			sinkFunc(func(i int, r *engine.Result) error {
				if i != len(spents) {
					t.Fatalf("delivery out of order: got %d at position %d", i, len(spents))
				}
				spents = append(spents, r.AdversarySpent)
				return nil
			}))
		if err != nil {
			t.Fatal(err)
		}
		return spents
	}
	seq := render(1)
	if len(seq) != 6 {
		t.Fatalf("delivered %d trials, want 6", len(seq))
	}
	if !reflect.DeepEqual(render(8), seq) {
		t.Fatal("Scenario.Stream diverges across procs")
	}
	// Seeds must match ShardSpecs: trial t of point 0 under base 1.
	specs, err := sc.ShardSpecs(1, 0, 6, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Run(mustBuildWithSeed(t, sc, specs[3].Seed))
	if err != nil {
		t.Fatal(err)
	}
	if want.AdversarySpent != seq[3] {
		t.Fatal("Scenario.Stream seeds diverge from ShardSpecs")
	}
}

// TestScenarioStreamBatch pins that the deprecated batch field is
// ignored: at every value the scenario streams the scalar oracle's
// results in trial order.
func TestScenarioStreamBatch(t *testing.T) {
	sc := Scenario{
		N: 64, K: 2,
		Adversary: AdversarySpec{Kind: "full"},
		Budget:    BudgetSpec{Pool: 1 << 10},
	}
	const trials = 10
	specs, err := sc.ShardSpecs(1, 0, trials, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*engine.Result, trials)
	for i := range want {
		if want[i], err = engine.RunScalar(context.Background(), mustBuildWithSeed(t, sc, specs[i].Seed)); err != nil {
			t.Fatal(err)
		}
	}
	for _, width := range []int{0, 1, 8} {
		sc.Batch = width
		var got []*engine.Result
		err := sc.Stream(context.Background(), 1, 1, 0, trials,
			sinkFunc(func(i int, r *engine.Result) error {
				if i != len(got) {
					t.Fatalf("delivery out of order: got %d at position %d", i, len(got))
				}
				got = append(got, r)
				return nil
			}))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch=%d stream diverges from the scalar oracle", width)
		}
	}
}

// sinkFunc is a local sim.Sink adapter (the sink package would import-cycle).
type sinkFunc func(i int, r *engine.Result) error

func (f sinkFunc) Trial(i int, r *engine.Result) error { return f(i, r) }
func (sinkFunc) Flush() error                          { return nil }

func mustBuildWithSeed(t *testing.T, sc Scenario, seed uint64) engine.Options {
	t.Helper()
	sc.Seed = seed
	opts, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

// TestScenarioRunContext: background context matches Run; canceled
// context yields the engine's typed partial error under both engine
// names.
func TestScenarioRunContext(t *testing.T) {
	sc := Scenario{
		N: 64, K: 2, Seed: 5,
		Adversary: AdversarySpec{Kind: "full"},
		Budget:    BudgetSpec{Pool: 1 << 10},
	}
	want, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunContext diverges from Run")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []string{"", "actors"} {
		sc.Engine = eng
		res, err := sc.RunContext(ctx)
		var pe *engine.PartialRunError
		if res != nil || !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %q: want typed partial error, got res=%v err=%v", eng, res, err)
		}
	}
}
