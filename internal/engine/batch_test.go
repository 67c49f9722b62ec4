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
	"rcbcast/internal/msg"
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
	// them on the channel, and their edges; then listen walks that settle
	// quiet runs at once, and the walks that must not, on a Gilbert graph
	// and on the clique. Every row records phases, so per-phase tallies
	// are compared too, and must reach the phase shape it is named for.
	for _, group := range []struct {
		prefix string
		rows   []phaseRow
	}{
		{"unheard/", unheardRows()},
		{"quiet-run/", quietRunRows(gilbert)},
		{"quiet-run/clique/", quietRunRows(topology.Spec{})},
		{"audience/", audienceRows()},
	} {
		for _, row := range group.rows {
			t.Run(group.prefix+row.name, func(t *testing.T) {
				bs := NewBatchScratch()
				res := batchMatchesScalarOn(t, bs, 8, func(lane int) Options {
					o := row.mk()
					o.Seed += uint64(lane) * 7919
					return o
				})
				if row.seen != nil {
					seen := bs.sc.lane.seen
					t.Logf("quiet walks: %+v", seen)
					if !row.seen(seen) {
						t.Fatalf("no walk reached the row's case: %+v", seen)
					}
					return
				}
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
	// Node ids past 0xffff: one round on a 70000-node grid, where the
	// request phase's NACKs and spoofs reach listeners with wide ids, and
	// where any per-phase structure quadratic in n would not fit.
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
	// seen, when set, replaces witness for a case the Results cannot
	// show: it must hold of the kernel's quiet-walk counts after the
	// row's batch.
	seen func(quietSeen) bool
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

// quietRunRows cover the listen walks' quiet runs on topology spec
// (listens short of the walk's next own send and the phase's next hot
// slot, settled a run at once) under a random jam, and the walks that
// keep the per-listen path: unpaid meters, targeted jams, plans shorter
// than the phase, and Alice's walk.
//
// On the clique one unjammed data slot informs every listener, so the
// propagate phases leave no one to listen in the request phase: there
// nodes listen at a twentieth of the protocol's rate, and every NACK
// collides with every other, so a replay lands solo only when it comes
// every third slot rather than every 61st.
func quietRunRows(spec topology.Spec) []phaseRow {
	const n = 64
	var hardOfHearing func(int) (float64, float64)
	replayEvery := 61
	if spec.IsClique() {
		hardOfHearing = func(int) (float64, float64) { return 0.05, 1 }
		replayEvery = 3
	}
	jammed := func(seed uint64) Options {
		params := core.PracticalParams(n, 2)
		params.MaxRound = params.StartRound + 2
		return Options{
			Params:       params,
			Seed:         seed,
			Topology:     spec,
			Strategy:     adversary.RandomJam{P: 0.5},
			Pool:         energy.NewPool(1 << 14),
			RecordPhases: true,
			Perturb:      hardOfHearing,
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
	}, {
		// A listen drawn on the node's own send, which leaves the slot
		// busy and, unjammed, hot: skipped, not heard. Heavy decoys put
		// uninformed listeners' own sends next to their neighbours'
		// data, which a walk that heard the slot would be informed by.
		name: "own-send-hot",
		mk: func() Options {
			o := jammed(307)
			o.Params.Decoy = true
			o.Params.DecoyProb = 0.05
			return o
		},
		seen: func(s quietSeen) bool { return s.hotSends > 0 },
	}, {
		// Replayed data in request phases informs a walk at a hot slot
		// whose block already counted jam noise before it.
		name: "request-inform-after-jam",
		mk: func() Options {
			o := jammed(308)
			o.Strategy = replayJam{adversary.RandomJam{P: 0.5}, replayEvery, core.PhaseRequest}
			return o
		},
		seen: func(s quietSeen) bool { return s.informAfterJam > 0 },
	}, {
		// The last walks of a pass leave the draw lanes and finish on
		// BlockSchedule refills, masked in Go. A lighter jam leaves them
		// hot slots to be informed at.
		name: "straggler-go-mask",
		mk: func() Options {
			o := jammed(309)
			o.Strategy = adversary.RandomJam{P: 0.25}
			return o
		},
		seen: func(s quietSeen) bool { return s.goMasks > 0 },
	}}
}

// audienceRows cover the quiet walks of listeners out of Alice's range,
// which settle her inform phases by the hot slots holding someone else's
// record: with no such slot, a block that needs no gather, and with
// inform-phase decoys on hot slots, a walk that hears one out; on a
// Gilbert graph (r = 0.25) and on a grid of reach 2. Only a data frame
// informs, and in an inform phase only an injection can carry one to a
// listener out of Alice's range: the replay rows do, so a walk that
// skipped an injection's slot would diverge.
func audienceRows() []phaseRow {
	const n = 64
	jammed := func(seed uint64, spec topology.Spec, decoyP float64) Options {
		params := core.PracticalParams(n, 2)
		params.MaxRound = params.StartRound + 2
		if decoyP > 0 {
			params.Decoy = true
			params.DecoyProb = decoyP
		}
		return Options{
			Params:       params,
			Seed:         seed,
			Topology:     spec,
			Strategy:     adversary.RandomJam{P: 0.5},
			Pool:         energy.NewPool(1 << 14),
			RecordPhases: true,
		}
	}
	replayed := func(seed uint64, spec topology.Spec) Options {
		o := jammed(seed, spec, 0)
		o.Strategy = replayJam{adversary.RandomJam{P: 0.5}, 61, core.PhaseInform}
		return o
	}
	grid := topology.Spec{Kind: "grid", Reach: 2}
	skips := func(s quietSeen) bool { return s.deafSkips > 0 }
	hears := func(s quietSeen) bool { return s.deafHears > 0 }
	return []phaseRow{
		{name: "random-jam-gilbert", mk: func() Options { return jammed(311, gilbert, 0) }, seen: skips},
		{name: "inform-decoys-gilbert", mk: func() Options { return jammed(312, gilbert, 0.02) }, seen: hears},
		{name: "random-jam-grid", mk: func() Options { return jammed(313, grid, 0) }, seen: skips},
		{name: "inform-decoys-grid", mk: func() Options { return jammed(314, grid, 0.02) }, seen: hears},
		{name: "inform-replay-gilbert", mk: func() Options { return replayed(315, gilbert) }, seen: hears},
		{name: "inform-replay-grid", mk: func() Options { return replayed(316, grid) }, seen: hears},
	}
}

// replayJam is a random jam that, in phases of kind `in`, also replays
// the data message every `every` slots from slot 5, so listeners can be
// informed where nodes only NACK, or where they cannot hear Alice.
type replayJam struct {
	adversary.RandomJam
	every int
	in    core.PhaseKind
}

func (s replayJam) PlanPhase(ph core.Phase, hist *adversary.History, pool *energy.Pool, st *rng.Stream) *adversary.Plan {
	p := s.RandomJam.PlanPhase(ph, hist, pool, st)
	if p != nil && ph.Kind == s.in {
		for slot := 5; slot < ph.Length; slot += s.every {
			p.Inject(slot, msg.Frame{Kind: msg.KindData, From: msg.SenderAlice})
		}
	}
	return p
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
	return batchMatchesScalarOn(t, nil, width, lane)
}

// batchMatchesScalarOn is batchMatchesScalar on the batch scratch bs.
func batchMatchesScalarOn(t *testing.T, bs *BatchScratch, width int, lane func(int) Options) []*Result {
	t.Helper()
	opts := make([]Options, width)
	for i := range opts {
		opts[i] = lane(i)
	}
	batch, err := RunBatch(opts, bs)
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
// with every trial's graph built into the scratch's topology buffers.
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
		})
	}
}

// TestScratchListKeepsIdle pins the free list Run draws its scratch
// from: an idle scratch survives garbage collections (a sync.Pool drops
// it after two), the warmest one comes back first, and the list keeps
// at most GOMAXPROCS idle scratches.
func TestScratchListKeepsIdle(t *testing.T) {
	var l scratchList
	a, b := l.get(), l.get()
	if a == b {
		t.Fatal("an empty list handed out one scratch twice")
	}
	l.put(a)
	l.put(b)
	runtime.GC()
	runtime.GC()
	if got := l.get(); got != b {
		t.Fatal("the last scratch returned did not come back first after two GCs")
	}
	if got := l.get(); got != a {
		t.Fatal("an idle scratch did not survive two GCs")
	}
	limit := runtime.GOMAXPROCS(0)
	for i := 0; i <= limit; i++ {
		l.put(NewScratch())
	}
	if len(l.idle) != limit {
		t.Fatalf("list holds %d idle scratches, want GOMAXPROCS = %d", len(l.idle), limit)
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
// block schedules, bitsets and topology buffers must all recycle. The
// bytes ceilings are TestSteadyStateAllocs's per trial; they catch
// buffer sets that grow one by one, which the object count alone
// cannot see.
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
