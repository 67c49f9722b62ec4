package rcbcast_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rcbcast"
)

// These tests exercise the public façade exactly the way a downstream
// user would, without touching internal packages.

func TestPublicQuickstart(t *testing.T) {
	res, err := rcbcast.Run(rcbcast.Options{
		Params: rcbcast.PracticalParams(256, 2),
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 256 || !res.Completed {
		t.Fatalf("quickstart run: %+v", res)
	}
}

func TestPublicJammedRun(t *testing.T) {
	res, err := rcbcast.Run(rcbcast.Options{
		Params:   rcbcast.PracticalParams(256, 2),
		Seed:     2,
		Strategy: rcbcast.FullJam{},
		Pool:     rcbcast.NewPool(1 << 13),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AdversarySpent == 0 {
		t.Fatal("jammer must spend")
	}
	if res.InformedFrac() < 0.9 {
		t.Fatalf("informed frac %v", res.InformedFrac())
	}
	// Resource competitiveness, the paper's headline, at the API level.
	if res.NodeCost.Median >= res.AdversarySpent {
		t.Fatalf("node median %d must be far below Carol's %d",
			res.NodeCost.Median, res.AdversarySpent)
	}
}

// TestPublicEnginesAgree: the deprecated RunActors forwarders return
// exactly Run's result.
func TestPublicEnginesAgree(t *testing.T) {
	mk := func() rcbcast.Options {
		return rcbcast.Options{
			Params:   rcbcast.PracticalParams(128, 2),
			Seed:     3,
			Strategy: rcbcast.RandomJam{P: 0.4},
			Pool:     rcbcast.NewPool(5000),
		}
	}
	a, err := rcbcast.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := rcbcast.RunActors(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("public engines must agree")
	}
	c, err := rcbcast.RunActorsContext(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("RunActorsContext must agree with Run")
	}
}

func TestPublicBudgets(t *testing.T) {
	bm := rcbcast.DefaultBudgets(2, 2)
	if bm.Node(10000) <= 0 || bm.Alice(10000) <= bm.Node(10000) {
		t.Fatal("budget model broken")
	}
	pool := bm.AdversaryPool(1024, 1.0)
	if pool.Budget() <= bm.Node(1024) {
		t.Fatal("adversary pool must dwarf a node budget")
	}
}

func TestPublicBaselines(t *testing.T) {
	nv := rcbcast.RunNaive(1000, 1<<20)
	if !nv.Delivered || nv.NodeCost != 1001 {
		t.Fatalf("naive baseline: %+v", nv)
	}
	ksy := rcbcast.RunKSY(1, 1000, 1<<20, rcbcast.KSYParams{})
	if !ksy.Delivered {
		t.Fatalf("KSY baseline: %+v", ksy)
	}
}

func TestPublicCustomStrategy(t *testing.T) {
	// A downstream user can implement Strategy against the façade types.
	var custom rcbcast.Strategy = customJammer{}
	res, err := rcbcast.Run(rcbcast.Options{
		Params:   rcbcast.PracticalParams(128, 2),
		Seed:     5,
		Strategy: custom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StrategyName != "custom-test-jammer" {
		t.Fatalf("strategy name %q", res.StrategyName)
	}
}

type customJammer struct{ rcbcast.Null }

func (customJammer) Name() string { return "custom-test-jammer" }

func TestPublicMultiHop(t *testing.T) {
	res, err := rcbcast.RunMultiHop(rcbcast.MultiHopOptions{
		Params: rcbcast.PracticalParams(128, 2),
		Hops:   3,
		Seed:   9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached || len(res.Hops) != 3 {
		t.Fatalf("multihop: %+v", res)
	}
}

func TestPublicTracers(t *testing.T) {
	var text, ndjson strings.Builder
	_, err := rcbcast.Run(rcbcast.Options{
		Params: rcbcast.PracticalParams(64, 2),
		Seed:   11,
		Tracer: rcbcast.NewTextTracer(&text),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "run complete") {
		t.Fatal("text tracer produced nothing")
	}
	_, err = rcbcast.Run(rcbcast.Options{
		Params: rcbcast.PracticalParams(64, 2),
		Seed:   11,
		Tracer: rcbcast.NewJSONTracer(&ndjson),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ndjson.String(), `"event":"done"`) {
		t.Fatal("json tracer produced nothing")
	}
}

func TestPublicPaperParamsBenign(t *testing.T) {
	// The paper-exact configuration (Figure 1 probabilities, absolute
	// quiet test, round 1 start): in a benign network the clamped early
	// rounds make delivery immediate — every node is informed and
	// terminated within round 1 — while Alice honours the §2.3 rule of
	// running until round ⌈3·lg ln n⌉ before applying her quiet test.
	res, err := rcbcast.Run(rcbcast.Options{
		Params: rcbcast.PaperParams(512, 2),
		Seed:   13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 512 || !res.Completed {
		t.Fatalf("paper-exact benign run: %+v", res)
	}
	wantRound := 8 // ceil(3 * lg ln 512)
	if res.Alice.Round != wantRound {
		t.Fatalf("alice terminated in round %d, want the §2.3 minimum %d", res.Alice.Round, wantRound)
	}
}

func TestPublicPaperParamsJammed(t *testing.T) {
	// Paper-exact mode against a budgeted full jammer: the absolute
	// quiet test holds (jammed request phases are noisy, so nobody
	// falsely terminates) and delivery completes after the pool drains.
	res, err := rcbcast.Run(rcbcast.Options{
		Params:   rcbcast.PaperParams(512, 2),
		Seed:     17,
		Strategy: rcbcast.FullJam{},
		Pool:     rcbcast.NewPool(4096),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InformedFrac() < 0.9 || !res.Completed {
		t.Fatalf("paper-exact jammed run: informed=%v completed=%t", res.InformedFrac(), res.Completed)
	}
}

func TestPublicVariantAndQuietConstants(t *testing.T) {
	p := rcbcast.PaperParams(256, 2)
	if p.Variant != rcbcast.VariantK2Exact || p.Quiet != rcbcast.QuietAbsolute {
		t.Fatalf("paper params: %+v", p)
	}
	q := rcbcast.PracticalParams(256, 3)
	if q.Variant != rcbcast.VariantGeneralK || q.Quiet != rcbcast.QuietFraction {
		t.Fatalf("practical params: %+v", q)
	}
	if rcbcast.Unlimited <= 0 {
		t.Fatal("Unlimited must be positive")
	}
}

func TestPublicScenarioSurface(t *testing.T) {
	// The declarative path: a scenario value runs directly...
	sc := rcbcast.Scenario{
		N: 96, K: 2, Seed: 19,
		Adversary: rcbcast.AdversarySpec{Kind: "full"},
		Budget:    rcbcast.BudgetSpec{Pool: 2048},
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StrategyName != "full-jam" || res.AdversarySpent == 0 {
		t.Fatalf("scenario run: %q spent %d", res.StrategyName, res.AdversarySpent)
	}
	// ...round-trips through JSON...
	data, err := rcbcast.EncodeScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := rcbcast.DecodeScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := decoded.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.AdversarySpent != res.AdversarySpent || res2.Informed != res.Informed {
		t.Fatal("decoded scenario ran differently")
	}
	// ...and the registry, flag syntax, and kind listing are reachable.
	if len(rcbcast.Scenarios()) == 0 || len(rcbcast.ScenarioNames()) == 0 || len(rcbcast.AdversaryKinds()) == 0 {
		t.Fatal("scenario registries empty")
	}
	named, ok := rcbcast.LookupScenario("partition-5%")
	if !ok {
		t.Fatal("named scenario missing")
	}
	named.N = 96
	if _, err := named.Run(); err != nil {
		t.Fatal(err)
	}
	spec, err := rcbcast.ParseAdversary("random:p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != "random" || spec.P != 0.3 {
		t.Fatalf("ParseAdversary: %+v", spec)
	}
}

func TestPublicAdversarySurface(t *testing.T) {
	// Exercise each re-exported strategy end to end at small n.
	params := rcbcast.PracticalParams(96, 2)
	params.MaxRound = params.StartRound + 2
	strategies := []rcbcast.Strategy{
		rcbcast.Null{},
		rcbcast.FullJam{},
		rcbcast.RandomJam{P: 0.3},
		rcbcast.Bursty{Burst: 8, Gap: 8},
		rcbcast.PhaseBlocker{BlockInform: true, Params: &params},
		&rcbcast.PartitionBlocker{Stranded: func(n int) bool { return n < 4 }},
		&rcbcast.NackSpoofer{Rate: 0.3, MaxRounds: 1},
		rcbcast.ReactiveJammer{},
	}
	for _, s := range strategies {
		res, err := rcbcast.Run(rcbcast.Options{
			Params:        params,
			Seed:          19,
			Strategy:      s,
			Pool:          rcbcast.NewPool(2048),
			AllowReactive: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.StrategyName != s.Name() {
			t.Fatalf("strategy name mismatch: %q vs %q", res.StrategyName, s.Name())
		}
	}
}

func TestPublicStreamingSession(t *testing.T) {
	// The streaming path end to end through the façade: one scenario,
	// one pass, four composed sinks.
	sc := rcbcast.Scenario{
		N: 96, K: 2,
		Adversary: rcbcast.AdversarySpec{Kind: "full"},
		Budget:    rcbcast.BudgetSpec{Pool: 2048},
	}
	const trials = 8
	var ndjson, progress strings.Builder
	fold := rcbcast.NewFoldSink(trials, func(r *rcbcast.Result) float64 { return r.InformedFrac() })
	top := rcbcast.NewTopKSink(2, func(r *rcbcast.Result) float64 { return float64(r.AdversarySpent) })
	seen := 0
	err := sc.Stream(context.Background(), 4, 1, 0, trials,
		fold, top,
		rcbcast.NewNDJSONSink(&ndjson),
		rcbcast.NewProgressSink(&progress, trials, 4),
		rcbcast.FuncSink(func(i int, r *rcbcast.Result) error {
			if i != seen {
				t.Fatalf("delivery out of order: %d at position %d", i, seen)
			}
			seen++
			return nil
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if seen != trials {
		t.Fatalf("delivered %d of %d trials", seen, trials)
	}
	if fold.Mean(0, 0) <= 0.9 {
		t.Fatalf("fold mean informed frac %v", fold.Mean(0, 0))
	}
	if got := top.Results(); len(got) != 2 || got[0].Result == nil {
		t.Fatalf("topk: %+v", got)
	}
	if lines := strings.Count(ndjson.String(), "\n"); lines != trials {
		t.Fatalf("NDJSON emitted %d lines", lines)
	}
	if !strings.Contains(progress.String(), "8/8 trials (100.0%)") {
		t.Fatalf("progress output %q", progress.String())
	}
}

func TestPublicStreamCancellation(t *testing.T) {
	sc := rcbcast.Scenario{
		N: 96, K: 2,
		Adversary: rcbcast.AdversarySpec{Kind: "full"},
		Budget:    rcbcast.BudgetSpec{Pool: 2048},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := sc.Stream(ctx, 2, 1, 0, 16, rcbcast.FuncSink(func(int, *rcbcast.Result) error { return nil }))
	var pe *rcbcast.PartialError
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want façade *PartialError wrapping Canceled, got %v", err)
	}
	// The engine-level typed error is reachable too.
	_, err = rcbcast.RunContext(ctx, rcbcast.Options{Params: rcbcast.PracticalParams(64, 2), Seed: 1})
	var pre *rcbcast.PartialRunError
	if !errors.As(err, &pre) {
		t.Fatalf("want *PartialRunError, got %v", err)
	}
}

func TestPublicCheckpointResume(t *testing.T) {
	sc := rcbcast.Scenario{
		N: 64, K: 2,
		Adversary: rcbcast.AdversarySpec{Kind: "full"},
		Budget:    rcbcast.BudgetSpec{Pool: 1024},
	}
	specs := make([]rcbcast.TrialSpec, 5)
	for i := range specs {
		spec, err := sc.TrialSpec(rcbcast.TrialSeed(1, i))
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = spec
	}
	var want strings.Builder
	if err := rcbcast.Stream(context.Background(), 2, specs, rcbcast.NewNDJSONSink(&want)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp, err := rcbcast.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := rcbcast.StreamCheckpointed(context.Background(), 2, specs, cp, rcbcast.NewNDJSONSink(&got)); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("checkpointed stream output diverges from plain stream")
	}
	// Reopen: fully journaled, so the sweep replays without re-running.
	cp2, err := rcbcast.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Done() != len(specs) {
		t.Fatalf("journal covers %d of %d trials", cp2.Done(), len(specs))
	}
}
