package engine

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/rng"
	"rcbcast/internal/trace"
)

func benignOpts(n int, seed uint64) Options {
	return Options{
		Params: core.PracticalParams(n, 2),
		Seed:   seed,
	}
}

func TestBenignRunInformsEveryone(t *testing.T) {
	res, err := Run(benignOpts(256, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 256 {
		t.Fatalf("informed = %d/256 without an adversary", res.Informed)
	}
	if !res.Completed {
		t.Fatal("benign run must complete")
	}
	if !res.Alice.Terminated || res.Alice.Dead {
		t.Fatalf("Alice must terminate cleanly: %+v", res.Alice)
	}
	if res.Stranded != 0 || res.Dead != 0 || res.ActiveAtEnd != 0 {
		t.Fatalf("benign run left stranded=%d dead=%d active=%d", res.Stranded, res.Dead, res.ActiveAtEnd)
	}
	if res.AdversarySpent != 0 {
		t.Fatalf("null adversary spent %d", res.AdversarySpent)
	}
	if res.Alice.Cost <= 0 || res.NodeCost.Max <= 0 {
		t.Fatal("costs must be positive")
	}
}

func TestBenignRunIsCheap(t *testing.T) {
	// Without jamming the protocol finishes in its first round, so costs
	// stay polylogarithmic-ish — far below the n^{1/2} budget scale.
	res, err := Run(benignOpts(1024, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != core.PracticalParams(1024, 2).StartRound {
		t.Fatalf("benign run took %d rounds, want the start round", res.Rounds)
	}
	if res.NodeCost.Max > 512 {
		t.Fatalf("node cost %d too high for a benign run", res.NodeCost.Max)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(benignOpts(128, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(benignOpts(128, 42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Informed != b.Informed || a.SlotsSimulated != b.SlotsSimulated ||
		a.Alice.Cost != b.Alice.Cost || a.NodeCost != b.NodeCost {
		t.Fatalf("same seed must replay identically:\n%+v\n%+v", a, b)
	}
	c, err := Run(benignOpts(128, 43))
	if err != nil {
		t.Fatal(err)
	}
	if a.Alice.Sends == c.Alice.Sends && a.NodeCost.Mean == c.NodeCost.Mean {
		t.Fatal("different seeds should differ somewhere")
	}
}

func TestInvalidParams(t *testing.T) {
	opts := benignOpts(128, 1)
	opts.Params.K = 1
	if _, err := Run(opts); err == nil {
		t.Fatal("invalid params must be rejected")
	}
	opts = benignOpts(128, 1)
	opts.NodeBudget = -1
	if _, err := Run(opts); err == nil {
		t.Fatal("negative budget must be rejected")
	}
}

func TestFullJamDelaysButDelivers(t *testing.T) {
	n := 256
	params := core.PracticalParams(n, 2)
	// Enough budget to block a few rounds, then it runs dry.
	pool := energy.NewPool(20000)
	res, err := Run(Options{
		Params:   params,
		Seed:     3,
		Strategy: adversary.FullJam{},
		Pool:     pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AdversarySpent == 0 {
		t.Fatal("full jam must spend")
	}
	if res.Informed < n*15/16 {
		t.Fatalf("informed = %d/%d after the jammer exhausts", res.Informed, n)
	}
	if !res.Completed {
		t.Fatal("run must complete after the pool drains")
	}
	benign, _ := Run(benignOpts(n, 3))
	if res.Rounds <= benign.Rounds {
		t.Fatalf("jamming must delay completion: %d vs %d rounds", res.Rounds, benign.Rounds)
	}
	if res.Alice.Cost <= benign.Alice.Cost {
		t.Fatal("jamming must cost Alice something")
	}
}

func TestPhaseBlockerForcesSublinearCost(t *testing.T) {
	n := 256
	params := core.PracticalParams(n, 2)
	pool := energy.NewPool(50000)
	res, err := Run(Options{
		Params: params,
		Seed:   5,
		Strategy: adversary.PhaseBlocker{
			BlockInform: true, BlockPropagate: true, Params: &params,
		},
		Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run must complete once blocking becomes unaffordable")
	}
	if res.Informed < n*15/16 {
		t.Fatalf("informed = %d/%d", res.Informed, n)
	}
	// Resource competitiveness: each correct node spends far less than
	// Carol. (The precise exponent is measured in the experiments.)
	if res.NodeCost.Max*4 > res.AdversarySpent {
		t.Fatalf("node cost %d not clearly below adversary spend %d",
			res.NodeCost.Max, res.AdversarySpent)
	}
}

func TestPartitionBlockerStrandsChosenSet(t *testing.T) {
	n := 256
	strandedSize := 8
	res, err := Run(Options{
		Params: core.PracticalParams(n, 2),
		Seed:   9,
		Strategy: &adversary.PartitionBlocker{
			Stranded: func(node int) bool { return node < strandedSize },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != n-strandedSize {
		t.Fatalf("informed = %d, want %d", res.Informed, n-strandedSize)
	}
	if res.Stranded != strandedSize {
		t.Fatalf("stranded = %d, want %d", res.Stranded, strandedSize)
	}
	if !res.Completed {
		t.Fatal("the stranding attack still lets everyone terminate (that is its point)")
	}
}

func TestNackSpooferKeepsAliceRunning(t *testing.T) {
	n := 256
	benign, err := Run(benignOpts(n, 11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Params:   core.PracticalParams(n, 2),
		Seed:     11,
		Strategy: &adversary.NackSpoofer{Rate: 0.5, MaxRounds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Alice.Round <= benign.Alice.Round {
		t.Fatalf("spoofing must delay Alice: round %d vs %d", res.Alice.Round, benign.Alice.Round)
	}
	if res.Alice.Cost <= benign.Alice.Cost {
		t.Fatal("spoofing must cost Alice extra listening")
	}
	if res.AdversaryInjections == 0 {
		t.Fatal("spoofer must have injected frames")
	}
	if res.Informed != n {
		t.Fatalf("spoofing does not block delivery: informed=%d", res.Informed)
	}
}

func TestReactiveJammerSilencesWithoutDecoys(t *testing.T) {
	n := 256
	params := core.PracticalParams(n, 2)
	params.MaxRound = params.StartRound + 3
	pool := energy.NewPool(1 << 20)
	res, err := Run(Options{
		Params:        params,
		Seed:          13,
		Strategy:      adversary.ReactiveJammer{},
		Pool:          pool,
		AllowReactive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 0 {
		t.Fatalf("reactive jammer vs undefended protocol: informed = %d, want 0", res.Informed)
	}
	// Crucially she does it cheaply: spending only on used slots, far
	// less than blocking phases outright would cost.
	if res.AdversarySpent*4 > res.SlotsSimulated {
		t.Fatalf("reactive jamming should be cheap: spent %d of %d slots",
			res.AdversarySpent, res.SlotsSimulated)
	}
}

func TestDecoysDefeatReactiveJammer(t *testing.T) {
	n := 256
	params := core.PracticalParams(n, 2)
	params.Decoy = true
	params.DecoyProb = 0.75 / float64(n) // practical cover rate, DESIGN.md §3
	params.ListenBoost = 4
	// Same pool as a few blocked phases; decoys force the reactive
	// jammer to pay for a constant fraction of every slot, draining it.
	pool := energy.NewPool(20000)
	res, err := Run(Options{
		Params:        params,
		Seed:          13,
		Strategy:      adversary.ReactiveJammer{},
		Pool:          pool,
		AllowReactive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed < n*15/16 {
		t.Fatalf("decoy defence failed: informed = %d/%d", res.Informed, n)
	}
	if !pool.Exhausted() {
		t.Fatalf("decoys must drain the reactive pool (spent %d of %d)",
			pool.Spent(), pool.Budget())
	}
}

func TestReactiveStrategyWithoutPermissionIsInert(t *testing.T) {
	res, err := Run(Options{
		Params:        core.PracticalParams(128, 2),
		Seed:          17,
		Strategy:      adversary.ReactiveJammer{},
		AllowReactive: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AdversarySpent != 0 {
		t.Fatal("reactive strategy without AllowReactive must fall back to nothing")
	}
	if res.Informed != 128 {
		t.Fatalf("informed = %d", res.Informed)
	}
}

func TestNodeBudgetExhaustion(t *testing.T) {
	res, err := Run(Options{
		Params:     core.PracticalParams(256, 2),
		Seed:       19,
		NodeBudget: 3, // absurdly small: nodes die listening
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dead == 0 {
		t.Fatal("tiny node budgets must kill some nodes")
	}
	for _, c := range res.NodeCosts {
		if c > 3 {
			t.Fatalf("node spent %d > budget 3", c)
		}
	}
}

func TestAliceBudgetExhaustion(t *testing.T) {
	res, err := Run(Options{
		Params:      core.PracticalParams(256, 2),
		Seed:        23,
		AliceBudget: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Alice.Dead {
		t.Fatal("Alice must exhaust a budget of 5")
	}
	if res.Alice.Cost > 5 {
		t.Fatalf("Alice spent %d > budget", res.Alice.Cost)
	}
	// Note: delivery can still succeed — a single solo transmission on a
	// broadcast channel reaches every concurrently listening node. The
	// budget property under test is only that she never overspends.
}

func TestPaperBudgetsSuffice(t *testing.T) {
	// With the paper's budget formulas (generous C) and no adversary,
	// nobody exhausts.
	n := 1024
	bm := energy.DefaultBudgets(8, 2)
	res, err := Run(Options{
		Params:      core.PracticalParams(n, 2),
		Seed:        29,
		NodeBudget:  bm.Node(n),
		AliceBudget: bm.Alice(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dead != 0 || res.Alice.Dead {
		t.Fatalf("paper budgets must suffice: dead=%d aliceDead=%t", res.Dead, res.Alice.Dead)
	}
	if res.Informed != n {
		t.Fatalf("informed = %d/%d", res.Informed, n)
	}
}

func TestPerturbHeterogeneousEstimates(t *testing.T) {
	// §4.2: constant-factor approximation of ln n and n. Nodes with 2x /
	// 0.5x estimates still all learn m.
	res, err := Run(Options{
		Params: core.PracticalParams(256, 2),
		Seed:   31,
		Perturb: func(node int) (float64, float64) {
			if node%2 == 0 {
				return 2, 0.5
			}
			return 0.5, 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed < 256*15/16 {
		t.Fatalf("approximate parameters broke delivery: %d/256", res.Informed)
	}
	if !res.Completed {
		t.Fatal("run must complete")
	}
}

func TestMaxPhaseSlotsGuard(t *testing.T) {
	params := core.PracticalParams(256, 2)
	_, err := Run(Options{
		Params:        params,
		Seed:          37,
		Strategy:      adversary.FullJam{},
		Pool:          nil, // unlimited jammer: protocol can never finish
		MaxPhaseSlots: 4096,
	})
	if !errors.Is(err, ErrPhaseTooLong) {
		t.Fatalf("want ErrPhaseTooLong, got %v", err)
	}
}

func TestRoundLimitReportsIncomplete(t *testing.T) {
	params := core.PracticalParams(256, 2)
	params.MaxRound = params.StartRound + 1
	res, err := Run(Options{
		Params:   params,
		Seed:     41,
		Strategy: adversary.FullJam{}, // unlimited pool
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("unlimited jammer within the round limit must leave the run incomplete")
	}
	if res.ActiveAtEnd == 0 {
		t.Fatal("nodes should still be active at the round limit")
	}
	if res.Informed != 0 {
		t.Fatalf("nothing should get through a full jam: informed=%d", res.Informed)
	}
}

func TestRecordPhases(t *testing.T) {
	res, err := Run(Options{
		Params:       core.PracticalParams(128, 2),
		Seed:         43,
		RecordPhases: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) == 0 {
		t.Fatal("RecordPhases must retain outcomes")
	}
	k := 2
	if len(res.Phases)%(k+1) != 0 {
		t.Fatalf("phases %d not a multiple of k+1", len(res.Phases))
	}
	first := res.Phases[0]
	if first.Phase.Kind != core.PhaseInform || first.AliceSends == 0 {
		t.Fatalf("first phase should be an inform phase with Alice sending: %+v", first)
	}
}

func TestGeneralKDelivery(t *testing.T) {
	for _, k := range []int{3, 4} {
		res, err := Run(Options{
			Params: core.PracticalParams(256, k),
			Seed:   47,
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Informed < 256*15/16 {
			t.Fatalf("k=%d: informed = %d/256", k, res.Informed)
		}
		if !res.Completed {
			t.Fatalf("k=%d: run must complete", k)
		}
	}
}

func TestPaperVariantK2Delivery(t *testing.T) {
	params := core.PracticalParams(512, 2)
	params.Variant = core.VariantK2Exact
	res, err := Run(Options{Params: params, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 512 {
		t.Fatalf("Figure-1 variant: informed = %d/512", res.Informed)
	}
}

func TestInformedFracAndSummary(t *testing.T) {
	r := &Result{N: 4, Informed: 3}
	if r.InformedFrac() != 0.75 {
		t.Fatalf("InformedFrac = %v", r.InformedFrac())
	}
	empty := &Result{}
	if empty.InformedFrac() != 0 {
		t.Fatal("empty result InformedFrac must be 0")
	}
	var buf []int64
	s := summarizeCosts([]int64{5, 1, 3}, &buf)
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if summarizeCosts(nil, &buf) != (CostSummary{}) {
		t.Fatal("empty summary must be zero")
	}
}

// TestSummarizeCostsScratch pins the node-cost summary on a recycled
// buffer: the costs stay unsorted, a buffer holding a longer earlier
// summary leaks nothing into a shorter one, the median of an even count
// is the upper one, and a warm buffer allocates nothing.
func TestSummarizeCostsScratch(t *testing.T) {
	buf := []int64{-7, -7, -7, -7, -7}
	costs := []int64{9, 2, 4}
	if s := summarizeCosts(costs, &buf); s != (CostSummary{Min: 2, Max: 9, Median: 4, Mean: 5}) {
		t.Fatalf("summary = %+v", s)
	}
	if costs[0] != 9 || costs[1] != 2 || costs[2] != 4 {
		t.Fatalf("summarizeCosts reordered its input: %v", costs)
	}
	if s := summarizeCosts([]int64{4, 1, 3, 2}, &buf); s.Median != 3 {
		t.Fatalf("even-count median = %d, want the upper one, 3", s.Median)
	}
	if allocs := testing.AllocsPerRun(10, func() { summarizeCosts(costs, &buf) }); allocs != 0 {
		t.Fatalf("summarizeCosts on a warm buffer allocates %.0f objects", allocs)
	}
}

// TestSelectKthMatchesSort pins the median selection to a sorted copy
// for every rank of random slices of every length up to 40, over value
// ranges from all-equal to all-distinct.
func TestSelectKthMatchesSort(t *testing.T) {
	st := rng.New(11)
	for n := 1; n <= 40; n++ {
		for _, span := range []int{1, 3, n, 1 << 20} {
			a := make([]int64, n)
			for i := range a {
				a[i] = int64(st.Intn(span))
			}
			sorted := slices.Sorted(slices.Values(a))
			for k := range n {
				b := slices.Clone(a)
				if got := selectKth(b, k); got != sorted[k] {
					t.Fatalf("n=%d span=%d k=%d: got %d, want %d (%v)", n, span, k, got, sorted[k], a)
				}
			}
		}
	}
}

func TestLoadBalancedCosts(t *testing.T) {
	// Alice and the median node must be within polylog factors of each
	// other even under attack.
	n := 256
	params := core.PracticalParams(n, 2)
	res, err := Run(Options{
		Params:   params,
		Seed:     59,
		Strategy: adversary.FullJam{},
		Pool:     energy.NewPool(30000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeCost.Median == 0 {
		t.Fatal("median node cost must be positive")
	}
	ratio := float64(res.Alice.Cost) / float64(res.NodeCost.Median)
	if ratio > 200 || ratio < 1.0/200 {
		t.Fatalf("load imbalance: alice=%d median=%d", res.Alice.Cost, res.NodeCost.Median)
	}
}

func TestPolyEstimateSweepDelivers(t *testing.T) {
	// §4.2 polynomial-overestimate mode: nodes know only ν = n² yet the
	// g-sweep still delivers, at a Θ(lg ν)-factor cost.
	n := 256
	params := core.PracticalParams(n, 2)
	params.PolyEstimate = float64(n) * float64(n)
	res, err := Run(Options{Params: params, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed < n*15/16 {
		t.Fatalf("sweep mode informed = %d/%d", res.Informed, n)
	}
	if !res.Completed {
		t.Fatal("sweep mode must terminate")
	}
	plain, err := Run(Options{Params: core.PracticalParams(n, 2), Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	// Latency pays the lg ν factor; cost grows but stays within ~lg ν.
	if res.SlotsSimulated <= plain.SlotsSimulated {
		t.Fatal("sweep mode must be slower than exact-n mode")
	}
	logNu := 16.0
	if float64(res.NodeCost.Median) > 4*logNu*float64(plain.NodeCost.Median)+64 {
		t.Fatalf("sweep median cost %d vs plain %d exceeds the lg ν budget",
			res.NodeCost.Median, plain.NodeCost.Median)
	}
}

func TestPolyEstimateSweepQuietTestSafe(t *testing.T) {
	// The all-sub-phases quiet rule must not let a mostly-uninformed
	// network terminate: block everything for a few rounds and check
	// nobody quits early.
	n := 256
	params := core.PracticalParams(n, 2)
	params.PolyEstimate = float64(n) * float64(n)
	params.MaxRound = params.StartRound + 1
	res, err := Run(Options{
		Params:   params,
		Seed:     67,
		Strategy: adversary.FullJam{}, // unlimited pool
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stranded != 0 {
		t.Fatalf("%d nodes falsely terminated uninformed under full jam", res.Stranded)
	}
	if res.Completed {
		t.Fatal("fully-jammed sweep run must not complete")
	}
}

func TestTracerReceivesConsistentEvents(t *testing.T) {
	counter := &trace.Counter{}
	res, err := Run(Options{
		Params: core.PracticalParams(128, 2),
		Seed:   71,
		Tracer: counter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !counter.DoneCalled {
		t.Fatal("tracer must see Done")
	}
	if counter.Informed != res.Informed {
		t.Fatalf("tracer saw %d informed events, result says %d", counter.Informed, res.Informed)
	}
	if counter.Terminated+counter.Stranded != res.Informed+res.Stranded {
		t.Fatalf("termination events %d+%d do not cover %d informed + %d stranded",
			counter.Terminated, counter.Stranded, res.Informed, res.Stranded)
	}
	if counter.AliceRound != res.Alice.Round {
		t.Fatalf("tracer alice round %d, result %d", counter.AliceRound, res.Alice.Round)
	}
	if counter.Phases == 0 {
		t.Fatal("tracer must see phases")
	}
}

func TestTracerDoesNotPerturbResults(t *testing.T) {
	plain, err := Run(Options{Params: core.PracticalParams(128, 2), Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Run(Options{
		Params: core.PracticalParams(128, 2),
		Seed:   73,
		Tracer: &trace.Counter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("tracing must not change simulation outcomes")
	}
}

func TestRunScalarTracing(t *testing.T) {
	counter := &trace.Counter{}
	res, err := RunScalar(context.Background(), Options{
		Params: core.PracticalParams(128, 2),
		Seed:   79,
		Tracer: counter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if counter.Informed != res.Informed || !counter.DoneCalled {
		t.Fatalf("scalar oracle tracing broken: %+v vs informed=%d", counter, res.Informed)
	}
}

func TestDataSpooferCannotInformButCollides(t *testing.T) {
	// Forged copies of m occupy the channel but fail authentication:
	// they can delay (collisions) yet never produce false delivery.
	n := 256
	res, err := Run(Options{
		Params:   core.PracticalParams(n, 2),
		Seed:     89,
		Strategy: adversary.DataSpoofer{Rate: 0.5},
		Pool:     energy.NewPool(20000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AdversaryInjections == 0 {
		t.Fatal("data spoofer must inject")
	}
	// Every informed node got the genuine m (spoofs carry KindSpoof and
	// cannot inform); delivery still completes once the pool drains.
	if res.Informed < n*15/16 {
		t.Fatalf("informed = %d/%d", res.Informed, n)
	}
}

func TestGreedyAdaptiveEndToEnd(t *testing.T) {
	n := 256
	res, err := Run(Options{
		Params:   core.PracticalParams(n, 2),
		Seed:     97,
		Strategy: &adversary.GreedyAdaptive{},
		Pool:     energy.NewPool(20000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AdversarySpent == 0 {
		t.Fatal("greedy adversary must spend")
	}
	if res.Informed < n*15/16 || !res.Completed {
		t.Fatalf("greedy adversary must still lose: %+v", res)
	}
}

func TestCompositeEndToEnd(t *testing.T) {
	n := 256
	params := core.PracticalParams(n, 2)
	res, err := Run(Options{
		Params: params,
		Seed:   101,
		Strategy: adversary.Composite{Parts: []adversary.Strategy{
			adversary.PhaseBlocker{BlockInform: true, Params: &params},
			&adversary.NackSpoofer{Rate: 0.3},
		}},
		Pool: energy.NewPool(30000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AdversaryJams == 0 || res.AdversaryInjections == 0 {
		t.Fatalf("composite must both jam and spoof: %+v", res)
	}
	if res.Informed < n*15/16 {
		t.Fatalf("informed = %d/%d", res.Informed, n)
	}
}
