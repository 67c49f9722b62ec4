package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/rng"
	"rcbcast/internal/topology"
)

var batchTopos = []struct {
	name string
	spec topology.Spec
}{
	{"clique", topology.Spec{}},
	{"grid", topology.Spec{Kind: "grid", Reach: 2}},
	{"gilbert", topology.Spec{Kind: "gilbert", Radius: 0.25}},
}

// batchLaneOptions derives lane `lane`'s Options for a differential
// case: the config's fresh construction (strategies and pools are
// per-run mutable state, so scalar and batch each call mk() themselves)
// with the topology installed and the seed varied per lane.
func batchLaneOptions(mk func() Options, spec topology.Spec, lane int) Options {
	o := mk()
	o.Topology = spec
	o.Seed += uint64(lane) * 7919
	if !spec.IsClique() {
		// Sparse runs at n=192 are slow; a short round window still
		// exercises every phase kind and both kernels identically.
		o.Params.MaxRound = o.Params.StartRound + 2
	}
	return o
}

// TestBatchMatchesScalar is the tentpole oracle: for every behavioural
// config, topology kind, and batch width — including width 1 — each
// lane of RunBatch must produce a Result bit-for-bit identical to the
// scalar engine's for the same Options.
func TestBatchMatchesScalar(t *testing.T) {
	widths := []int{1, 2, 4, 8}
	if testing.Short() {
		widths = []int{1, 8}
	}
	for name, mk := range equivalenceConfigs() {
		for _, tp := range batchTopos {
			for _, width := range widths {
				t.Run(fmt.Sprintf("%s/%s/w%d", name, tp.name, width), func(t *testing.T) {
					batchMatchesScalar(t, width, func(lane int) Options {
						return batchLaneOptions(mk, tp.spec, lane)
					})
				})
			}
		}
	}
	// One call mixing topology kinds, node counts, adversaries, and
	// MaxPhaseSlots: lanes are independent trials.
	t.Run("mixed", func(t *testing.T) { batchMatchesScalar(t, 9, mixedLane) })
	// Node ids past 0xffff in the packed reception record: one round on
	// a 70000-node grid, where the request phase's NACKs and spoofs reach
	// listeners with wide ids.
	t.Run("grid-70000", func(t *testing.T) {
		if testing.Short() {
			t.Skip("70000-node grid: slow")
		}
		batchMatchesScalar(t, 1, func(int) Options {
			params := core.PracticalParams(70000, 2)
			params.MaxRound = params.StartRound
			return Options{
				Params:       params,
				Seed:         9,
				Topology:     topology.Spec{Kind: "grid", Reach: 1},
				Strategy:     &adversary.NackSpoofer{Rate: 0.4, MaxRounds: 1},
				RecordPhases: true,
			}
		})
	})
}

// mixedLane is lane i of the heterogeneous differential batch: the
// topology kind cycles with i, the node count with i/3 (so every
// kind meets every count), and the adversary, budgets, and
// MaxPhaseSlots vary per lane.
func mixedLane(i int) Options {
	tp := batchTopos[i%len(batchTopos)]
	params := core.PracticalParams([]int{64, 96, 128}[(i/3)%3], 2)
	if !tp.spec.IsClique() {
		params.MaxRound = params.StartRound + 2
	}
	o := Options{
		Params:        params,
		Seed:          uint64(500 + i),
		Topology:      tp.spec,
		MaxPhaseSlots: 1<<20 + i,
	}
	switch i % 4 {
	case 1:
		o.Strategy = adversary.FullJam{}
		o.Pool = energy.NewPool(8000)
	case 2:
		o.Strategy = &adversary.NackSpoofer{Rate: 0.4, MaxRounds: 2}
	case 3:
		o.NodeBudget, o.AliceBudget = 40, 500
	}
	return o
}

// batchMatchesScalar runs the lanes in one RunBatch call and checks
// each Result against Run on a fresh construction of the same lane.
func batchMatchesScalar(t *testing.T, width int, lane func(int) Options) {
	t.Helper()
	opts := make([]Options, width)
	for i := range opts {
		opts[i] = lane(i)
	}
	batch, err := RunBatch(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != width {
		t.Fatalf("got %d results for %d lanes", len(batch), width)
	}
	for i := range batch {
		scalar, err := Run(lane(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scalar, batch[i]) {
			t.Fatalf("lane %d diverged:\nscalar: %+v\nbatch:  %+v", i, scalar, batch[i])
		}
	}
}

// TestBatchNoGeoBlock8MatchesScalar re-runs a slice of the batch
// differential with the assembly draw kernel force-disabled in process,
// pinning the pure-Go block-draw path against the scalar engine even on
// hosts that have the kernel. CI additionally runs the full batch
// byte-identity suite under RCBCAST_NO_GEOBLOCK8=1; this in-process
// variant keeps the coupling visible to a plain `go test`.
func TestBatchNoGeoBlock8MatchesScalar(t *testing.T) {
	was := rng.SetGeoBlock8(false)
	defer rng.SetGeoBlock8(was)
	for _, name := range []string{"benign", "full-jam", "reactive-decoy", "budgets"} {
		mk, ok := equivalenceConfigs()[name]
		if !ok {
			t.Fatalf("missing equivalence config %q", name)
		}
		for _, tp := range batchTopos {
			t.Run(fmt.Sprintf("%s/%s", name, tp.name), func(t *testing.T) {
				batchMatchesScalar(t, 4, func(lane int) Options {
					return batchLaneOptions(mk, tp.spec, lane)
				})
			})
		}
	}
}

// TestBatchScratchReuse pins the scratch discipline: consecutive
// batches on one BatchScratch — including a width change and a second
// pass over the same specs — are byte-identical to fresh-scratch runs,
// and the topology cache actually carries graphs across batches.
func TestBatchScratchReuse(t *testing.T) {
	mkOpts := func(width int, spec topology.Spec) []Options {
		opts := make([]Options, width)
		for lane := range opts {
			params := core.PracticalParams(128, 2)
			if !spec.IsClique() {
				params.MaxRound = params.StartRound + 2
			}
			opts[lane] = Options{
				Params:   params,
				Seed:     uint64(300 + lane),
				Topology: spec,
				Strategy: adversary.FullJam{},
				Pool:     energy.NewPool(1 << 12),
			}
		}
		return opts
	}
	for _, tp := range batchTopos {
		t.Run(tp.name, func(t *testing.T) {
			bs := NewBatchScratch()
			var rounds [][]*Result
			for _, width := range []int{4, 2, 4} {
				got, err := RunBatch(mkOpts(width, tp.spec), bs)
				if err != nil {
					t.Fatal(err)
				}
				rounds = append(rounds, got)
			}
			fresh, err := RunBatch(mkOpts(4, tp.spec), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, width := range []int{4, 2, 4} {
				for lane := 0; lane < width; lane++ {
					if !reflect.DeepEqual(rounds[i][lane], fresh[lane]) {
						t.Fatalf("pass %d lane %d: reused scratch diverged from fresh", i, lane)
					}
				}
			}
			hits, misses := bs.cache.Stats()
			switch {
			case tp.spec.IsClique():
				// The clique never consults the cache (global fast path).
				if hits+misses != 0 {
					t.Fatalf("clique batches touched the topology cache: %d hits, %d misses", hits, misses)
				}
			case tp.spec.TrialInvariant():
				// One build serves all ten lane-trials across the passes.
				if misses != 1 || hits != 9 {
					t.Fatalf("grid cache stats = (%d hits, %d misses), want (9, 1)", hits, misses)
				}
			default:
				// Gilbert: one build per distinct seed (4), reused on the
				// later passes (2 + 4 hits).
				if misses != 4 || hits != 6 {
					t.Fatalf("gilbert cache stats = (%d hits, %d misses), want (6, 4)", hits, misses)
				}
			}
		})
	}
}

// TestBatchValidation covers the batch API's edges: empty input and
// per-lane option errors.
func TestBatchValidation(t *testing.T) {
	res, err := RunBatch(nil, nil)
	if res != nil || err != nil {
		t.Fatalf("empty batch: got (%v, %v)", res, err)
	}
	invalid := Options{Params: core.PracticalParams(64, 2), Seed: 1}
	invalid.Params.N = 0
	if _, err := RunBatch([]Options{invalid, invalid}, nil); err == nil {
		t.Fatal("invalid lane options must be rejected")
	}
}

// TestMaxPhaseSlotsBound: both engines store slots as int32, so a
// MaxPhaseSlots past math.MaxInt32 is rejected up front rather than
// wrapping.
func TestMaxPhaseSlotsBound(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits: no MaxPhaseSlots value exceeds the bound")
	}
	o := Options{Params: core.PracticalParams(64, 2), Seed: 1}
	limit := int64(math.MaxInt32)
	o.MaxPhaseSlots = int(limit + 1)
	if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "MaxPhaseSlots") {
		t.Fatalf("Run: got %v, want the MaxPhaseSlots bound", err)
	}
	if _, err := RunBatch([]Options{o}, nil); err == nil || !strings.Contains(err.Error(), "MaxPhaseSlots") {
		t.Fatalf("RunBatch: got %v, want the MaxPhaseSlots bound", err)
	}
	o.MaxPhaseSlots = math.MaxInt32
	if _, err := Run(o); err != nil {
		t.Fatalf("MaxPhaseSlots = math.MaxInt32 must be accepted: %v", err)
	}
}

// TestBatchContextCancel: a canceled context surfaces as a
// *PartialRunError, exactly like the scalar context path.
func TestBatchContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := make([]Options, 4)
	for lane := range opts {
		opts[lane] = Options{Params: core.PracticalParams(128, 2), Seed: uint64(lane)}
	}
	_, err := RunBatchContext(ctx, opts, nil)
	var pe *PartialRunError
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want *PartialRunError wrapping context.Canceled, got %v", err)
	}
}

// steadyBatch mirrors steadyTrials for the batch kernel: the
// BENCH_ENGINE workload, 8 trials per call, with everything a sweep hoists
// (options slice, pools, scratch) hoisted out of the loop.
func steadyBatch(spec topology.Spec, fail func(error)) (trial func(), width int) {
	const w = 8
	params := core.PracticalParams(256, 2)
	if !spec.IsClique() {
		params.MaxRound = params.StartRound + 2
	}
	pools := make([]*energy.Pool, w)
	opts := make([]Options, w)
	for lane := range opts {
		pools[lane] = energy.NewPool(1 << 12)
		opts[lane] = Options{
			Params:   params,
			Topology: spec,
			Strategy: adversary.FullJam{},
			Pool:     pools[lane],
		}
	}
	bs := NewBatchScratch()
	seed := uint64(0)
	return func() {
		for lane := range opts {
			pools[lane].Reset(1 << 12)
			opts[lane].Seed = seed
			seed++
		}
		res, err := RunBatch(opts, bs)
		if err != nil {
			fail(err)
		}
		if len(res) != w || res[0].N != 256 {
			fail(errBadResult)
		}
	}, w
}

// TestSteadyStateAllocsBatch extends the allocation gate to the batch
// kernel: a warmed-up batch allocates per lane what a warmed-up scalar
// run allocates per trial (run struct, escaped Options, Result,
// NodeCosts, cost-sort copy) plus the shared results slice — block
// schedules, bitsets, and the topology cache must all recycle.
func TestSteadyStateAllocsBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts; CI gates this test in a separate non-race step")
	}
	for _, tc := range []struct {
		name    string
		spec    topology.Spec
		ceiling float64 // per lane, matching the scalar gate's anatomy
	}{
		{"clique", topology.Spec{}, 16},
		{"grid", topology.Spec{Kind: "grid", Reach: 2}, 24},
		{"gilbert", topology.Spec{Kind: "gilbert", Radius: 0.25}, 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trial, width := steadyBatch(tc.spec, func(err error) { t.Fatal(err) })
			for i := 0; i < 8; i++ {
				trial()
			}
			ceiling := tc.ceiling * float64(width)
			if got := testing.AllocsPerRun(10, trial); got > ceiling {
				t.Fatalf("steady-state %s batch allocates %.1f objects/op at width %d, ceiling %v",
					tc.name, got, width, ceiling)
			}
		})
	}
}

// BenchmarkSteadyStateBatch is BenchmarkSteadyState on the batch
// kernel: one RunBatch call of several trials per op, scratch warmed
// before the timer. ns/op covers every trial of the op, and the
// trials/op metric says how many there are; compare ns/op over
// trials/op against BenchmarkSteadyState.
func BenchmarkSteadyStateBatch(b *testing.B) {
	for _, tc := range steadyKinds {
		b.Run(tc.name, func(b *testing.B) {
			trial, width := steadyBatch(tc.spec, func(err error) { b.Fatal(err) })
			for i := 0; i < 2; i++ {
				trial()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trial()
			}
			b.ReportMetric(float64(width), "trials/op")
		})
	}
}
