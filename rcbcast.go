// Package rcbcast is a faithful, executable reproduction of
//
//	Gilbert & Young, "Making Evildoers Pay: Resource-Competitive
//	Broadcast in Sensor Networks", PODC 2012 (arXiv:1202.4576).
//
// It implements the ε-BROADCAST protocol (the paper's Figures 1 and 2),
// the time-slotted single-hop channel model with an n-uniform Byzantine
// jamming adversary, the §4.1 decoy defence against reactive jammers, the
// §4.2 approximate-parameter mode, the baselines the paper compares
// against, and a harness that regenerates every quantitative claim of
// Theorem 1 as a measured experiment (see DESIGN.md and EXPERIMENTS.md).
//
// # Quickstart
//
// A run is described by a declarative, JSON-serializable Scenario:
//
//	res, err := rcbcast.Scenario{
//		N: 1024, K: 2, Seed: 1,
//		Adversary: rcbcast.AdversarySpec{Kind: "full"}, // Carol jams everything...
//		Budget:    rcbcast.BudgetSpec{Pool: 1 << 14},   // ...until her pool drains
//	}.Run()
//	if err != nil { ... }
//	fmt.Printf("informed %d/%d, alice paid %d, median node paid %d, Carol paid %d\n",
//		res.Informed, res.N, res.Alice.Cost, res.NodeCost.Median, res.AdversarySpent)
//
// Named scenarios ship every attack the paper analyzes:
//
//	sc, _ := rcbcast.LookupScenario("reactive-decoy")
//	sc.N = 1024
//	res, err := sc.Run()
//
// Monte-Carlo sweeps stream through a bounded-memory, cancellable run
// session: results reach composable sinks in deterministic trial order
// while only O(procs) results are ever live:
//
//	acc := rcbcast.NewFoldSink(1, func(r *rcbcast.Result) float64 { return r.InformedFrac() })
//	err := sc.Stream(ctx, 0 /* procs */, 1 /* base seed */, 0 /* point */, 1_000_000,
//		acc, rcbcast.NewProgressSink(os.Stderr, 1_000_000, 50_000))
//
// Cancel ctx and Stream returns a typed *PartialError; add a
// Checkpoint (StreamCheckpointed) and the sweep resumes byte-identically.
// A checkpoint pins the first spec's seed, protocol instance and
// topology. Specs carry the adversary and budget as factories, which
// the pin cannot see, so resume a checkpoint only with the specs that
// wrote it.
//
// The lower-level Options API remains for callers wiring custom
// strategies or tracers.
//
// The package is a façade over the implementation packages under
// internal/; everything a downstream user needs is re-exported here.
package rcbcast

import (
	"context"
	"io"

	"rcbcast/internal/adversary"
	"rcbcast/internal/baseline"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/engine"
	"rcbcast/internal/multihop"
	"rcbcast/internal/scenario"
	"rcbcast/internal/sim"
	"rcbcast/internal/sim/sink"
	"rcbcast/internal/topology"
	"rcbcast/internal/trace"
)

// Protocol configuration (internal/core).
type (
	// Params fully determines an ε-BROADCAST instance; construct with
	// PaperParams or PracticalParams and adjust fields as needed.
	Params = core.Params
	// Variant selects Figure 1 (k=2 exact) or Figure 2 (general k)
	// probability constants.
	Variant = core.Variant
	// QuietMode selects the request-phase termination test.
	QuietMode = core.QuietMode
	// Phase is one resolved phase descriptor of the round schedule.
	Phase = core.Phase
)

// Re-exported protocol constants.
const (
	VariantGeneralK = core.VariantGeneralK
	VariantK2Exact  = core.VariantK2Exact
	QuietAbsolute   = core.QuietAbsolute
	QuietFraction   = core.QuietFraction
)

// PaperParams returns the protocol exactly as analyzed in the paper.
func PaperParams(n, k int) Params { return core.PaperParams(n, k) }

// PracticalParams returns the same functional forms tuned for
// laptop-scale simulations (the experiment defaults).
func PracticalParams(n, k int) Params { return core.PracticalParams(n, k) }

// Execution (internal/engine).
type (
	// Options configures one protocol execution.
	Options = engine.Options
	// Result reports a finished execution.
	Result = engine.Result
	// AliceStats aggregates Alice's costs and exit status.
	AliceStats = engine.AliceStats
	// CostSummary summarizes the per-node cost distribution.
	CostSummary = engine.CostSummary
)

// Run executes the protocol.
func Run(opts Options) (*Result, error) { return engine.Run(opts) }

// RunActors is Run.
//
// Deprecated: the goroutine-per-node engine is gone; call Run.
func RunActors(opts Options) (*Result, error) { return Run(opts) }

// RunContext executes the protocol with phase-boundary cancellation:
// once ctx is done the run stops and returns a typed *PartialRunError.
func RunContext(ctx context.Context, opts Options) (*Result, error) {
	return engine.RunContext(ctx, opts)
}

// RunActorsContext is RunContext.
//
// Deprecated: the goroutine-per-node engine is gone; call RunContext.
func RunActorsContext(ctx context.Context, opts Options) (*Result, error) {
	return RunContext(ctx, opts)
}

// PartialRunError is the typed error a canceled engine run returns; it
// carries the rounds and slots completed and unwraps to the context's
// error.
type PartialRunError = engine.PartialRunError

// Parallel sweeps (internal/sim).

// TrialSpec describes one engine execution for the parallel trial
// runner: protocol params, a derived seed, and factories for per-trial
// adversary state.
type TrialSpec = sim.TrialSpec

// RunTrials executes every spec across a pool of procs workers
// (procs <= 0 selects GOMAXPROCS) and returns results indexed like
// specs. Output is byte-identical for every procs value. It is a
// compatibility wrapper over Stream that collects all O(trials)
// results; large sweeps should Stream into sinks instead.
func RunTrials(procs int, specs []TrialSpec) ([]*Result, error) {
	return sim.RunTrials(procs, specs)
}

// Streaming run sessions (internal/sim + internal/sim/sink): the
// bounded-memory, cancellable execution path. Stream delivers results
// to composable sinks in trial order — byte-identical output for every
// worker count — while holding only O(procs) live results.
type (
	// Sink consumes per-trial results in deterministic trial order;
	// implement it or compose the built-ins below.
	Sink = sim.Sink
	// PartialError is the typed error of a stream stopped early
	// (cancellation, failing trial, failing sink); trials
	// [0, Delivered) reached every sink.
	PartialError = sim.PartialError
	// FuncSink adapts a function to Sink for ad-hoc aggregation.
	FuncSink = sink.Func
	// FoldSink folds trials into per-sweep-point streaming
	// accumulators (stats.Acc columns).
	FoldSink = sink.Fold
	// NDJSONSink writes one TrialRecord JSON line per trial.
	NDJSONSink = sink.NDJSON
	// CSVSink writes a header plus one TrialRecord row per trial.
	CSVSink = sink.CSV
	// ProgressSink reports count-based sweep progress to a side
	// channel.
	ProgressSink = sink.Progress
	// TopKSink retains the K highest-scoring trials in O(K) space.
	TopKSink = sink.TopK
	// ScoredResult is one trial retained by a TopKSink.
	ScoredResult = sink.Scored
	// Checkpoint journals delivered trials so interrupted sweeps
	// resume byte-identically.
	Checkpoint = sink.Checkpoint
	// TrialRecord is the flat per-trial summary the writers emit.
	TrialRecord = sink.Record
)

// Stream executes every spec on procs workers and delivers results to
// the sinks in trial order with bounded buffering. Cancellation of ctx
// stops workers at the next engine phase boundary and returns a
// *PartialError.
func Stream(ctx context.Context, procs int, specs []TrialSpec, sinks ...Sink) error {
	return sim.Stream(ctx, procs, specs, sinks...)
}

// NewNDJSONSink returns a sink writing one JSON line per trial to w.
func NewNDJSONSink(w io.Writer) *NDJSONSink { return sink.NewNDJSON(w) }

// NewCSVSink returns a sink writing a CSV header plus one row per trial.
func NewCSVSink(w io.Writer) *CSVSink { return sink.NewCSV(w) }

// NewProgressSink returns a sink reporting progress to w every `every`
// trials (count-based, deterministic).
func NewProgressSink(w io.Writer, total, every int) *ProgressSink {
	return sink.NewProgress(w, total, every)
}

// NewTopKSink returns a sink retaining the k highest-scoring trials.
func NewTopKSink(k int, score func(*Result) float64) *TopKSink {
	return sink.NewTopK(k, score)
}

// NewFoldSink returns a sink folding trialsPerPoint consecutive trials
// per sweep point, one streaming accumulator per column extractor.
func NewFoldSink(trialsPerPoint int, cols ...func(*Result) float64) *FoldSink {
	return sink.NewFold(trialsPerPoint, cols...)
}

// OpenCheckpoint opens (or creates) a completed-trial journal.
func OpenCheckpoint(path string) (*Checkpoint, error) { return sink.OpenCheckpoint(path) }

// StreamCheckpointed is Stream with a resumable journal: trials already
// in cp replay to the sinks instead of re-running, so an interrupted
// sweep resumed with the same specs produces byte-identical output. A
// journal another sweep wrote fails and is left untouched.
func StreamCheckpointed(ctx context.Context, procs int, specs []TrialSpec, cp *Checkpoint, sinks ...Sink) error {
	return sink.StreamCheckpointedShard(ctx, procs, 0, 0, specs, cp, sinks...)
}

// TrialSeed derives the engine seed for one trial of a sweep by mixing
// (base, trial) through SplitMix64; trial-seed sets from different bases
// are disjoint in practice.
func TrialSeed(base uint64, trial int) uint64 { return sim.TrialSeed(base, trial) }

// SweepSeed derives the engine seed for trial `trial` of sweep point
// `point` — use it instead of packing both into one TrialSeed index.
func SweepSeed(base uint64, point, trial int) uint64 { return sim.SweepSeed(base, point, trial) }

// Declarative scenarios (internal/scenario).
type (
	// Scenario is a complete, serializable run description: protocol
	// choice, adversary, budgets. It round-trips through JSON, builds
	// Options or TrialSpecs, and runs.
	Scenario = scenario.Scenario
	// AdversarySpec is the plain-data description of Carol: a Kind from
	// the registry plus numeric knobs. New mints fresh strategy
	// instances, replacing hand-rolled factory closures.
	AdversarySpec = scenario.AdversarySpec
	// BudgetSpec declares Carol's pool (fixed or the paper's model) and
	// the optional per-device budgets.
	BudgetSpec = scenario.BudgetSpec
	// ScenarioOverrides are optional protocol-parameter adjustments.
	ScenarioOverrides = scenario.Overrides
	// NamedScenario couples a registry name with its scenario.
	NamedScenario = scenario.Named
	// AdversaryKind describes one registered adversary kind.
	AdversaryKind = scenario.KindInfo
)

// ParseAdversary decodes the compact adversary flag syntax, e.g.
// "random:p=0.3" or "blocker:inform,prop+spoofer:p=0.3".
func ParseAdversary(s string) (AdversarySpec, error) { return scenario.ParseAdversary(s) }

// LookupScenario returns a copy of a named scenario from the registry;
// set N (and usually K and Seed) before running it.
func LookupScenario(name string) (Scenario, bool) { return scenario.Lookup(name) }

// Scenarios returns the named-scenario registry in order.
func Scenarios() []NamedScenario { return scenario.All() }

// ScenarioNames returns the registry names in order.
func ScenarioNames() []string { return scenario.Names() }

// AdversaryKinds lists the registered adversary kinds.
func AdversaryKinds() []AdversaryKind { return scenario.Kinds() }

// DecodeScenario parses a JSON scenario (unknown fields rejected).
func DecodeScenario(data []byte) (Scenario, error) { return scenario.Decode(data) }

// EncodeScenario renders a scenario as indented JSON; encode→decode→
// encode is byte-stable.
func EncodeScenario(s Scenario) ([]byte, error) { return scenario.Encode(s) }

// Topologies (internal/topology): the neighborhood graph reception is
// resolved against — clique (the paper's single-hop channel, the
// default), grid, or Gilbert random-geometric. Set Scenario.Topology /
// Options.Topology; the zero value is the clique, byte-identical to the
// pre-topology engine.
type (
	// Topology is the immutable neighborhood graph interface.
	Topology = topology.Topology
	// TopologySpec is the plain-data, JSON/flag-serializable topology
	// description ("grid:w=32,reach=2", "gilbert:r=0.2").
	TopologySpec = topology.Spec
	// TopologyKind describes one registered topology kind.
	TopologyKind = topology.KindInfo
)

// ParseTopology decodes the compact topology flag syntax, e.g.
// "gilbert:r=0.2" or "grid:w=32,reach=2".
func ParseTopology(s string) (TopologySpec, error) { return topology.ParseSpec(s) }

// TopologyKinds lists the registered topology kinds.
func TopologyKinds() []TopologyKind { return topology.Kinds() }

// ReachableWithin returns the number of nodes within `hops` edge-hops
// of Alice on the topology (hops < 0: her whole component) — the
// delivery ceiling of the unmodified single-hop protocol is
// ReachableWithin(t, k).
func ReachableWithin(t Topology, hops int) int { return topology.ReachableWithin(t, hops) }

// Scratch recycles engine working buffers across runs (Options.Scratch)
// — the allocation-rate lever for tight trial loops. Results are
// byte-identical with and without one.
type Scratch = engine.Scratch

// NewScratch returns an empty scratch buffer set.
func NewScratch() *Scratch { return engine.NewScratch() }

// Adversaries (internal/adversary).
type (
	// Strategy is Carol: she commits a jamming/spoofing plan per phase.
	Strategy = adversary.Strategy
	// Reactive strategies additionally see the current phase's RSSI
	// activity bitmap (grant with Options.AllowReactive).
	Reactive = adversary.Reactive
	// Plan is a phase commitment; used when implementing custom
	// strategies.
	Plan = adversary.Plan
	// History is the adaptive adversary's view of past phases.
	History = adversary.History

	// Null never jams.
	Null = adversary.Null
	// FullJam jams every slot until the pool drains.
	FullJam = adversary.FullJam
	// RandomJam jams each slot independently with probability P.
	RandomJam = adversary.RandomJam
	// Bursty alternates jammed bursts with silent gaps.
	Bursty = adversary.Bursty
	// PhaseBlocker jams whole targeted phases while affordable
	// (Lemma 10's delay strategy).
	PhaseBlocker = adversary.PhaseBlocker
	// PartitionBlocker is the §2.3 n-uniform stranding attack.
	PartitionBlocker = adversary.PartitionBlocker
	// NackSpoofer is the §2.2 spoofed-NACK attack on the request phase.
	NackSpoofer = adversary.NackSpoofer
	// ReactiveJammer jams exactly the slots carrying transmissions
	// (§4.1 threat model).
	ReactiveJammer = adversary.ReactiveJammer
)

// Energy model (internal/energy).
type (
	// Pool is the adversary's shared energy purse.
	Pool = energy.Pool
	// BudgetModel computes the paper's budgets as functions of n and k.
	BudgetModel = energy.BudgetModel
)

// Unlimited is the budget value meaning "no cap".
const Unlimited = energy.Unlimited

// NewPool returns an adversary pool with the given aggregate budget.
func NewPool(budget int64) *Pool { return energy.NewPool(budget) }

// DefaultBudgets returns the paper's budget model with leading constant c
// for protocol parameter k.
func DefaultBudgets(c float64, k int) BudgetModel { return energy.DefaultBudgets(c, k) }

// Baselines (internal/baseline).
type (
	// BaselineResult reports a baseline protocol execution.
	BaselineResult = baseline.Result
	// KSYParams tunes the King–Saia–Young-style baseline.
	KSYParams = baseline.KSYParams
)

// Tracing (internal/trace).
type (
	// Tracer receives structured execution events (set Options.Tracer).
	Tracer = trace.Tracer
	// TextTracer renders a human-readable trace.
	TextTracer = trace.Text
	// JSONTracer emits NDJSON events.
	JSONTracer = trace.JSON
	// NopTracer ignores everything; embed it in custom tracers.
	NopTracer = trace.Nop
)

// NewTextTracer returns a human-readable tracer writing to w.
func NewTextTracer(w io.Writer) *TextTracer { return trace.NewText(w) }

// NewJSONTracer returns an NDJSON tracer writing to w.
func NewJSONTracer(w io.Writer) *JSONTracer { return trace.NewJSON(w) }

// Multi-hop extension (internal/multihop, the §5 open question) —
// orchestration over the one topology-aware kernel.
type (
	// MultiHopOptions configures a cluster-pipeline execution.
	MultiHopOptions = multihop.Options
	// MultiHopResult is the end-to-end outcome.
	MultiHopResult = multihop.Result
	// HopResult summarizes one cluster's broadcast.
	HopResult = multihop.HopResult
	// GridWaveOptions configures a lattice wave: one kernel execution
	// on the grid topology.
	GridWaveOptions = multihop.GridOptions
	// GridWaveResult pairs the kernel result with the ring profile.
	GridWaveResult = multihop.GridResult
)

// RunMultiHop executes ε-BROADCAST across a path of single-hop clusters,
// relaying m (still carrying Alice's authenticator) hop by hop.
func RunMultiHop(opts MultiHopOptions) (*MultiHopResult, error) {
	return multihop.Run(opts)
}

// RunGridWave executes the lattice wave on the unified kernel and
// reports delivery ring by ring; the unmodified single-hop protocol
// carries the wave exactly k hops.
func RunGridWave(opts GridWaveOptions) (*GridWaveResult, error) {
	return multihop.RunGrid(opts)
}

// RunNaive executes the naive always-on baseline against a T-slot jam.
func RunNaive(jamSlots, maxSlots int64) BaselineResult {
	return baseline.RunNaive(jamSlots, maxSlots)
}

// RunKSY executes the KSY'11-style baseline against a T-slot jam.
func RunKSY(seed uint64, jamSlots, maxSlots int64, params KSYParams) BaselineResult {
	return baseline.RunKSY(seed, jamSlots, maxSlots, params)
}
