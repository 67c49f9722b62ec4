// Package engine executes ε-BROADCAST (internal/core) against an adversary
// (internal/adversary) on the slot channel model (internal/slotsim).
//
// One engine runs the protocol, plus one oracle it is tested against:
//
//   - Run / RunContext (and RunBatch for a slice of trials): the batch
//     kernel every caller runs on — single runs, sweeps (sim.Stream),
//     the multi-hop pipeline. Per-slot coin flips are simulated by
//     geometric skipping with block draws (internal/sampling), so the
//     work per phase is proportional to the number of *actions*, not
//     slots; channel state is word-packed bitsets, and sparse
//     topologies resolve reception through a per-phase index (see
//     batch.go).
//   - RunScalar: the scalar reference loop — one slot schedule per
//     walk, byte-per-slot channel arrays, a binary search per sparse
//     listen. It is the differential tests' independent oracle and has
//     no production caller.
//
// Both draw every random decision from the same keyed streams
// (internal/rng), charge energy under the same rules, and therefore
// produce bit-for-bit identical Results — and event traces — for
// identical Options. The differential, trace and fuzz tests assert
// exactly that.
//
// Energy-enforcement rule (shared): a device's transmissions for a phase
// are committed and charged at phase start in slot order, truncated when
// its budget exhausts; listens are charged as they occur. A device whose
// budget exhausts is dead: it stops participating and, if uninformed,
// counts as a failure.
package engine

import (
	"errors"
	"fmt"
	"math"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/topology"
	"rcbcast/internal/trace"
)

// Options configures a single protocol execution.
type Options struct {
	// Params is the protocol instance. Required; must Validate.
	Params core.Params
	// Seed drives every random decision of the run.
	Seed uint64
	// Topology selects the neighborhood graph reception is resolved
	// against (internal/topology). The zero value is the clique — the
	// paper's single-hop channel — which resolves through the original
	// global-channel fast path, byte-identical to the pre-topology
	// engine. Randomized topologies (gilbert) are built
	// deterministically from Seed, so trials stay reproducible across
	// worker counts.
	Topology topology.Spec
	// Strategy is Carol; nil means no adversary.
	Strategy adversary.Strategy
	// Pool is the adversary's energy. nil means unlimited (useful when an
	// experiment caps spend through the strategy itself).
	Pool *energy.Pool
	// NodeBudget caps each correct node's spend; 0 means unlimited.
	NodeBudget int64
	// AliceBudget caps Alice's spend; 0 means unlimited.
	AliceBudget int64
	// AllowReactive grants a Reactive strategy its within-slot RSSI view.
	// When false, reactive strategies fall back to their adaptive
	// PlanPhase.
	AllowReactive bool
	// Payload is the message m. The engine models authentication at the
	// type level — only genuinely authentic frames carry msg.KindData,
	// spoofs carry msg.KindSpoof and can never inform a node — so the
	// payload's bytes do not influence simulation outcomes; the full
	// HMAC path is exercised by the msg and slotsim packages.
	Payload []byte
	// Perturb, if set, returns per-node multipliers for the listening and
	// sending probabilities — the §4.2 heterogeneous-estimate mode where
	// nodes know ln n and n only approximately. Must be deterministic.
	Perturb func(node int) (listenScale, sendScale float64)
	// RecordPhases retains per-phase outcomes in the Result.
	RecordPhases bool
	// Tracer, if non-nil, receives structured execution events in
	// deterministic order (the engine serializes all calls, so tracers
	// need not be concurrency-safe).
	Tracer trace.Tracer
	// MaxPhaseSlots aborts runs whose next phase exceeds this many slots
	// (guards against accidentally unbounded memory). 0 means 1<<26; at
	// most math.MaxInt32, since the kernel and the oracle store slots as
	// int32.
	MaxPhaseSlots int
	// Scratch, if non-nil, recycles the run's working buffers (channel
	// state, per-node state, the kernel's lane) across executions; when
	// nil, Run takes one from a pool. A Scratch must never be shared by
	// concurrently executing runs; results are byte-identical with and
	// without one.
	Scratch *Scratch
}

// ErrPhaseTooLong is returned when a phase exceeds MaxPhaseSlots.
var ErrPhaseTooLong = errors.New("engine: phase exceeds MaxPhaseSlots")

func (o *Options) maxPhaseSlots() int {
	if o.MaxPhaseSlots > 0 {
		return o.MaxPhaseSlots
	}
	return 1 << 26
}

func (o *Options) strategy() adversary.Strategy {
	if o.Strategy != nil {
		return o.Strategy
	}
	return adversary.Null{}
}

func (o *Options) validate() error {
	if err := o.Params.Validate(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if o.NodeBudget < 0 || o.AliceBudget < 0 {
		return errors.New("engine: budgets must be non-negative")
	}
	if err := o.Topology.Validate(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if o.MaxPhaseSlots > math.MaxInt32 {
		return errors.New("engine: MaxPhaseSlots exceeds math.MaxInt32")
	}
	return nil
}

// AliceStats summarizes Alice's run.
type AliceStats struct {
	// Sends and Listens are her slot counts; Cost is their sum.
	Sends, Listens, Cost int64
	// Terminated reports a clean exit via the quiet test; Dead reports
	// budget exhaustion.
	Terminated bool
	Dead       bool
	// Round is the round in which she stopped (0 if she never did).
	Round int
}

// CostSummary describes the distribution of per-node costs.
type CostSummary struct {
	Min, Max, Median int64
	Mean             float64
}

// Result is the outcome of one protocol execution.
type Result struct {
	// N is the number of correct nodes.
	N int
	// Informed counts nodes that received m.
	Informed int
	// Stranded counts nodes that terminated uninformed (the ε loss).
	Stranded int
	// Dead counts nodes that exhausted their budget.
	Dead int
	// ActiveAtEnd counts nodes still running when the round limit hit.
	ActiveAtEnd int
	// Completed reports that Alice and every node stopped before the
	// round limit.
	Completed bool
	// Rounds is the index of the last executed round.
	Rounds int
	// SlotsSimulated is total protocol time (the latency measure).
	SlotsSimulated int64

	// Alice aggregates Alice's costs and exit.
	Alice AliceStats
	// NodeCosts holds each node's total spend, indexed by node id.
	NodeCosts []int64
	// NodeCost summarizes NodeCosts.
	NodeCost CostSummary

	// AdversarySpent is Carol's total spend T (jams + injections).
	AdversarySpent int64
	// AdversaryJams and AdversaryInjections split T by operation.
	AdversaryJams, AdversaryInjections int64
	// StrategyName records which adversary ran.
	StrategyName string

	// Phases holds per-phase outcomes when Options.RecordPhases is set.
	Phases []adversary.PhaseOutcome
}

// InformedFrac returns Informed/N.
func (r *Result) InformedFrac() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.Informed) / float64(r.N)
}

// MaxNodeCost returns the largest single-node spend.
func (r *Result) MaxNodeCost() int64 { return r.NodeCost.Max }
