package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/rng"
	"rcbcast/internal/topology"
	"rcbcast/internal/trace"
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

// TestBatchMatchesScalar is the kernel's differential oracle: for every
// behavioural config, topology kind, and batch width — including width
// 1 — each lane of RunBatch must produce a Result bit-for-bit identical
// to the scalar oracle's (RunScalar) for the same Options.
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
	// Phases nobody hears, where the kernel counts sends without putting
	// them on the channel, and their edges; then sparse listen walks that
	// settle quiet runs at once, and the walks that must not. Every row
	// records phases, so per-phase tallies are compared too, and must
	// reach the phase shape it is named for.
	for _, group := range []struct {
		prefix string
		rows   []phaseRow
	}{{"unheard/", unheardRows()}, {"quiet-run/", quietRunRows()}} {
		for _, row := range group.rows {
			t.Run(group.prefix+row.name, func(t *testing.T) {
				res := batchMatchesScalar(t, 8, func(lane int) Options {
					o := row.mk()
					o.Seed += uint64(lane) * 7919
					return o
				})
				for _, r := range res {
					for _, ph := range r.Phases {
						if row.witness(r, ph) {
							return
						}
					}
				}
				t.Fatalf("no lane reached a phase of the row's shape")
			})
		}
	}
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

// TestKernelTraceMatchesScalar pins the event trace: for every
// behavioural config and topology kind, the JSON trace Run writes is
// byte-identical to the scalar oracle's, so a traced run (rcbcast
// -trace) reports exactly the events of the reference loop.
func TestKernelTraceMatchesScalar(t *testing.T) {
	for name, mk := range equivalenceConfigs() {
		for _, tp := range batchTopos {
			t.Run(name+"/"+tp.name, func(t *testing.T) {
				var kernel, scalar bytes.Buffer
				o := batchLaneOptions(mk, tp.spec, 0)
				o.Tracer = trace.NewJSON(&kernel)
				if _, err := Run(o); err != nil {
					t.Fatal(err)
				}
				o = batchLaneOptions(mk, tp.spec, 0)
				o.Tracer = trace.NewJSON(&scalar)
				if _, err := RunScalar(context.Background(), o); err != nil {
					t.Fatal(err)
				}
				if scalar.Len() == 0 {
					t.Fatal("the scalar oracle wrote no trace")
				}
				if !bytes.Equal(kernel.Bytes(), scalar.Bytes()) {
					k, s := kernel.Bytes(), scalar.Bytes()
					i := 0
					for i < len(k) && i < len(s) && k[i] == s[i] {
						i++
					}
					t.Fatalf("traces differ at byte %d of %d/%d (kernel/scalar)", i, len(k), len(s))
				}
			})
		}
	}
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

// phaseRow is a differential row for one phase shape; witness reports
// whether phase ph of result r has the shape the row exists to cover.
type phaseRow struct {
	name    string
	mk      func() Options
	witness func(r *Result, ph adversary.PhaseOutcome) bool
}

// unheard reports a phase in which no correct party listened.
func unheard(ph adversary.PhaseOutcome) bool { return ph.NodeListens == 0 && ph.AliceListens == 0 }

func unheardRows() []phaseRow {
	const n = 16
	// deaf makes every node's listen probability 0: nodes are never
	// informed and never listen, but still NACK.
	deaf := func(seed uint64) Options {
		params := core.PracticalParams(n, 2)
		params.MaxRound = params.StartRound + 2
		return Options{
			Params:       params,
			Seed:         seed,
			Perturb:      func(int) (float64, float64) { return 0, 1 },
			RecordPhases: true,
		}
	}
	return []phaseRow{{
		// The fine-grained benign sweep's shape: once everyone is
		// informed, the propagate phase is sends only.
		name: "benign-n16",
		mk: func() Options {
			return Options{Params: core.PracticalParams(n, 2), Seed: 201, RecordPhases: true}
		},
		witness: func(_ *Result, ph adversary.PhaseOutcome) bool { return unheard(ph) && ph.NodeDataSends > 0 },
	}, {
		// A reactive jammer reads the busy set, so a phase stays heard
		// for it even when no correct party listens. A clique jammer
		// spends its whole pool on the inform phase that first informs
		// anyone, so the row uses deaf nodes instead: Alice's inform
		// sends reach no listener, yet draw jams.
		name: "reactive-deaf",
		mk: func() Options {
			o := deaf(202)
			o.Strategy = adversary.ReactiveJammer{}
			o.Pool = energy.NewPool(1 << 12)
			o.AllowReactive = true
			return o
		},
		witness: func(_ *Result, ph adversary.PhaseOutcome) bool { return unheard(ph) && ph.JammedSlots > 0 },
	}, {
		// Alice alone hears the deaf nodes' NACKs: the request phase
		// stays heard for her.
		name: "alice-only",
		mk:   func() Options { return deaf(203) },
		witness: func(_ *Result, ph adversary.PhaseOutcome) bool {
			return ph.NodeListens == 0 && ph.AliceListens > 0 && ph.NodeNacks > 0
		},
	}, {
		// Decoy cover traffic merged with relays in a phase nobody
		// hears.
		name: "decoy",
		mk: func() Options {
			params := core.PracticalParams(n, 2)
			params.Decoy = true
			params.DecoyProb = 0.75 / n
			return Options{Params: params, Seed: 204, RecordPhases: true}
		},
		witness: func(_ *Result, ph adversary.PhaseOutcome) bool { return unheard(ph) && ph.NodeDecoys > 0 },
	}, {
		// Budgets too small to prepay a phase's sends: the per-send
		// charge path, with nodes dying mid-walk.
		name: "budget-death",
		mk: func() Options {
			return Options{Params: core.PracticalParams(n, 2), Seed: 205, NodeBudget: 40, RecordPhases: true}
		},
		witness: func(r *Result, ph adversary.PhaseOutcome) bool {
			return unheard(ph) && ph.NodeDataSends > 0 && r.Dead > 0
		},
	}}
}

// quietRunRows cover the sparse listen walks' quiet runs (listens below
// the walk's next event, settled a run at once) under a random jam, and
// the walks that keep the per-listen path: unpaid meters, targeted jams,
// plans shorter than the phase, and Alice's walk.
func quietRunRows() []phaseRow {
	const n = 64
	jammed := func(seed uint64) Options {
		params := core.PracticalParams(n, 2)
		params.MaxRound = params.StartRound + 2
		return Options{
			Params:       params,
			Seed:         seed,
			Topology:     gilbert,
			Strategy:     adversary.RandomJam{P: 0.5},
			Pool:         energy.NewPool(1 << 14),
			RecordPhases: true,
		}
	}
	// jammedListens reports a phase of the kind in which nodes listened
	// under jamming.
	jammedListens := func(ph adversary.PhaseOutcome, kind core.PhaseKind) bool {
		return ph.Phase.Kind == kind && ph.NodeListens > 0 && ph.JammedSlots > 0
	}
	return []phaseRow{{
		// Jam noise counts in request phases only; propagate phases
		// inform from the same walks.
		name: "random-jam-gilbert",
		mk:   func() Options { return jammed(301) },
		witness: func(r *Result, _ adversary.PhaseOutcome) bool {
			var req, prop bool
			for _, ph := range r.Phases {
				req = req || jammedListens(ph, core.PhaseRequest)
				prop = prop || jammedListens(ph, core.PhasePropagate)
			}
			return req && prop
		},
	}, {
		// Device budgets below a phase's length: the walks charge per
		// listen, and nodes die mid-walk under the jam.
		name: "budget-death",
		mk: func() Options {
			o := jammed(302)
			o.NodeBudget = 60
			return o
		},
		witness: func(r *Result, ph adversary.PhaseOutcome) bool {
			return r.Dead > 0 && ph.NodeListens > 0 && ph.JammedSlots > 0
		},
	}, {
		// A targeted jam disrupts only some listeners: no quiet runs.
		name: "partition-gilbert",
		mk: func() Options {
			o := jammed(303)
			o.Strategy = &adversary.PartitionBlocker{Stranded: func(node int) bool { return node%8 == 0 }}
			return o
		},
		witness: func(_ *Result, ph adversary.PhaseOutcome) bool {
			return ph.NodeListens > 0 && ph.JammedSlots > 0
		},
	}, {
		// The partition jam never reaches a request phase, where noise
		// counts; targetedJam does, sparing odd listeners and Alice.
		name: "targeted-request",
		mk: func() Options {
			o := jammed(305)
			o.Strategy = targetedJam{adversary.RandomJam{P: 0.5}}
			return o
		},
		witness: func(_ *Result, ph adversary.PhaseOutcome) bool {
			return jammedListens(ph, core.PhaseRequest)
		},
	}, {
		// A custom strategy may return a plan shorter than the phase;
		// past its end nothing is jammed, and a walk must not read the
		// mask there.
		name: "short-plan",
		mk: func() Options {
			o := jammed(306)
			o.Strategy = shortJam{adversary.RandomJam{P: 0.5}}
			return o
		},
		witness: func(_ *Result, ph adversary.PhaseOutcome) bool {
			return jammedListens(ph, core.PhaseRequest)
		},
	}, {
		// Deaf, mute nodes leave Alice the only listener, with nothing to
		// hear but the jam: her quiet test turns on jam noise alone.
		name: "alice-only",
		mk: func() Options {
			o := jammed(304)
			o.Perturb = func(int) (float64, float64) { return 0, 0 }
			return o
		},
		witness: func(_ *Result, ph adversary.PhaseOutcome) bool {
			return ph.NodeListens == 0 && ph.AliceListens > 0 && ph.JammedSlots > 0
		},
	}}
}

// targetedJam is a random jam, in every phase kind, that disrupts only
// even-numbered listeners.
type targetedJam struct{ adversary.RandomJam }

func (s targetedJam) PlanPhase(ph core.Phase, hist *adversary.History, pool *energy.Pool, st *rng.Stream) *adversary.Plan {
	p := s.RandomJam.PlanPhase(ph, hist, pool, st)
	if p != nil {
		p.SetDisrupt(func(_, listener int) bool { return listener%2 == 0 })
	}
	return p
}

// shortJam is a random jam planned for the first half of each phase
// only, so its plans are shorter than their phases.
type shortJam struct{ adversary.RandomJam }

func (s shortJam) PlanPhase(ph core.Phase, hist *adversary.History, pool *energy.Pool, st *rng.Stream) *adversary.Plan {
	ph.Length /= 2
	return s.RandomJam.PlanPhase(ph, hist, pool, st)
}

// batchMatchesScalar runs the lanes in one RunBatch call, checks each
// Result against RunScalar on a fresh construction of the same lane,
// and returns the batch's Results.
func batchMatchesScalar(t *testing.T, width int, lane func(int) Options) []*Result {
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
		scalar, err := RunScalar(context.Background(), lane(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scalar, batch[i]) {
			t.Fatalf("lane %d diverged:\nscalar: %+v\nbatch:  %+v", i, scalar, batch[i])
		}
	}
	return batch
}

// TestBatchNoGeoBlock8MatchesScalar re-runs a slice of the batch
// differential with the assembly draw kernel force-disabled in process,
// pinning the pure-Go block-draw path against the scalar oracle even on
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
// the topology cache carries the grid across batches, and Gilbert
// graphs, fresh for every seed, never touch it.
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
			var hits, misses uint64
			if c := bs.sc.cache; c != nil {
				hits, misses = c.Stats()
			}
			switch {
			case tp.spec.IsClique() || !tp.spec.TrialInvariant():
				// The clique resolves through the global fast path;
				// Gilbert graphs build into the lane's topology scratch.
				if hits+misses != 0 {
					t.Fatalf("%s batches touched the topology cache: %d hits, %d misses", tp.name, hits, misses)
				}
			default:
				// One build serves all ten lane-trials across the passes.
				if misses != 1 || hits != 9 {
					t.Fatalf("grid cache stats = (%d hits, %d misses), want (9, 1)", hits, misses)
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

// TestMaxPhaseSlotsBound: the kernel and the oracle store slots as
// int32, so a MaxPhaseSlots past math.MaxInt32 is rejected up front
// rather than wrapping.
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
// *PartialRunError, exactly like RunContext.
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

// steadyBatch mirrors steadyTrials for the batch kernel: the kind's
// workload, 8 trials per call, with everything a sweep hoists (options
// slice, pools, scratch) hoisted out of the loop.
func steadyBatch(k steadyKind, fail func(error)) (trial func(), width int) {
	const w = 8
	pools := make([]*energy.Pool, w)
	opts := make([]Options, w)
	for lane := range opts {
		pools[lane] = energy.NewPool(k.pool)
		opts[lane] = k.options(pools[lane])
	}
	bs := NewBatchScratch()
	seed := uint64(0)
	return func() {
		for lane := range opts {
			pools[lane].Reset(k.pool)
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

// TestSteadyStateAllocsBatch extends the allocation gate to RunBatch
// calls of several trials: a warmed-up batch allocates per lane what a
// warmed-up Run allocates per trial (run struct, escaped Options,
// Result, NodeCosts, cost-sort copy) plus the shared results slice —
// block schedules, bitsets, topology buffers and the topology cache
// must all recycle. The bytes ceilings are TestSteadyStateAllocs's per
// trial; they catch buffer sets that grow one by one, which the object
// count alone cannot see.
func TestSteadyStateAllocsBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts; CI gates this test in a separate non-race step")
	}
	for _, tc := range []struct {
		kind         steadyKind
		ceiling      float64 // per lane, matching the Run gate's anatomy
		bytesCeiling float64 // per lane
	}{
		{steadyKinds[0], 16, 32 << 10},
		{steadyKinds[1], 24, 48 << 10},
		{steadyKinds[2], 24, 48 << 10},
		{steadyKinds[3], 16, 32 << 10}, // benign clique: the clique anatomy
		{steadyKinds[4], 24, 48 << 10}, // gilbert-random: the gilbert row
	} {
		t.Run(tc.kind.name, func(t *testing.T) {
			trial, width := steadyBatch(tc.kind, func(err error) { t.Fatal(err) })
			for i := 0; i < 8; i++ {
				trial()
			}
			ceiling := tc.ceiling * float64(width)
			allocs := testing.AllocsPerRun(10, trial)
			if allocs > ceiling {
				t.Fatalf("steady-state %s batch allocates %.1f objects/op at width %d, ceiling %v",
					tc.kind.name, allocs, width, ceiling)
			}
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				trial()
			}
			runtime.ReadMemStats(&after)
			got := float64(after.TotalAlloc-before.TotalAlloc) / (runs * float64(width))
			t.Logf("%.1f objects/op at width %d, %.0f bytes per trial", allocs, width, got)
			if got > tc.bytesCeiling {
				t.Fatalf("steady-state %s batch allocates %.0f bytes per trial at width %d, ceiling %v",
					tc.kind.name, got, width, tc.bytesCeiling)
			}
		})
	}
}

// BenchmarkSteadyStateBatch is BenchmarkSteadyState through RunBatch:
// one call of several trials per op, scratch warmed
// before the timer. ns/op covers every trial of the op, and the
// trials/op metric says how many there are; compare ns/op over
// trials/op against BenchmarkSteadyState.
func BenchmarkSteadyStateBatch(b *testing.B) {
	for _, tc := range steadyKinds {
		b.Run(tc.name, func(b *testing.B) {
			trial, width := steadyBatch(tc, func(err error) { b.Fatal(err) })
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

// TestDrawPath logs which geometric draw path this package's tests ran
// on. rng.DrawPath reads RCBCAST_NO_GEOBLOCK8 while the tests run, so go
// test reuses a cached result only under the same setting.
func TestDrawPath(t *testing.T) { t.Log(rng.DrawPath()) }
