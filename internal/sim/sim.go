// Package sim is the shared execution layer for experiment sweeps: a
// deterministic parallel trial runner and, on top of it, a streaming
// run session (Stream) that delivers results to composable Sinks in
// trial order with bounded buffering — the bounded-memory, cancellable
// path every sweep in this repository runs through. The sink library
// lives in the sub-package sim/sink.
//
// Every experiment in internal/experiment is a Monte-Carlo sweep — many
// independent engine executions whose results are averaged per sweep
// point. The engine derives every random decision from keyed streams
// (seed, actor, round, phase, purpose), so a trial's outcome is a pure
// function of its TrialSpec; trials are embarrassingly parallel without
// giving up bit-for-bit reproducibility. The session exploits that: one
// worker pool (StreamMap) executes trials in whatever order scheduling
// happens to produce but *delivers* results in trial-index order, so
// sink folds — and the collected slice RunTrials builds on top — are
// byte-identical for Procs=1 and Procs=32, including floating-point
// aggregation.
//
// Per-trial seeds come from TrialSeed, a SplitMix64 mix of
// (base seed, trial index). Unlike affine schemes such as
// base*1_000_003+i, mixed seeds from adjacent bases do not collide for
// any realistic trial count, so repetitions with BaseSeed and BaseSeed+1
// are statistically independent (see the disjointness test).
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/engine"
	"rcbcast/internal/rng"
	"rcbcast/internal/topology"
)

// TrialSeed derives the engine seed for one trial of a sweep by mixing
// the sweep's base seed with the trial index through SplitMix64
// (rng.Mix). The map (base, trial) -> seed behaves like a random
// function: trial-seed sets from different bases are disjoint in
// practice, so sweeps repeated with adjacent base seeds draw independent
// randomness.
func TrialSeed(base uint64, trial int) uint64 {
	return rng.Mix(base, uint64(trial))
}

// SweepSeed derives the engine seed for trial `trial` of sweep point
// `point` — a three-part SplitMix64 mix. Multi-point sweeps use this
// instead of hand-packing point and trial into one TrialSeed index
// (strides like point*100+trial collide across points as soon as a
// point uses more trials than the stride).
func SweepSeed(base uint64, point, trial int) uint64 {
	return rng.Mix(base, uint64(point), uint64(trial))
}

// TrialSpec describes one engine execution: the protocol instance, the
// fully derived seed, and factories for the per-trial adversary state.
//
// Strategy and Pool are factories rather than instances because several
// strategies (NackSpoofer, SweepJammer, GreedyAdaptive, ...) and every
// Pool carry per-run mutable state; sharing one instance across
// concurrently running trials would race. Each worker calls the
// factories once per trial.
type TrialSpec struct {
	// Params is the protocol instance. Required; must Validate.
	Params core.Params
	// Topology selects the neighborhood graph reception is resolved
	// against (zero value = the clique, the paper's single-hop
	// channel). Randomized topologies are rebuilt per trial from Seed,
	// so they parallelize like everything else.
	Topology topology.Spec
	// Seed drives every random decision of the trial; derive it with
	// TrialSeed.
	Seed uint64
	// Strategy constructs Carol for this trial; nil means no adversary.
	Strategy func() adversary.Strategy
	// Pool constructs Carol's energy purse; nil means unlimited.
	Pool func() *energy.Pool
	// Configure, if non-nil, adjusts the assembled Options before the
	// run (RecordPhases, AllowReactive, Perturb, device budgets...). It
	// runs on a worker goroutine and must not touch shared mutable
	// state.
	Configure func(*engine.Options)
}

// options assembles the engine.Options for the spec.
func (s *TrialSpec) options() engine.Options {
	opts := engine.Options{Params: s.Params, Topology: s.Topology, Seed: s.Seed}
	if s.Strategy != nil {
		opts.Strategy = s.Strategy()
	}
	if s.Pool != nil {
		opts.Pool = s.Pool()
	}
	if s.Configure != nil {
		s.Configure(&opts)
	}
	return opts
}

// Procs resolves a proc-count override: values <= 0 select
// runtime.GOMAXPROCS.
func Procs(procs int) int {
	if procs > 0 {
		return procs
	}
	return runtime.GOMAXPROCS(0)
}

// RunTrials executes every spec across a pool of procs workers
// (procs <= 0 selects GOMAXPROCS) and returns the results indexed like
// specs. Output is byte-identical for every procs value.
//
// RunTrials is retained as a thin compatibility wrapper over the
// streaming session: it is exactly Stream with a collecting sink, so it
// materializes all O(trials) results. Sweeps that can fold results as
// they arrive should use Stream with sinks instead and keep only
// O(procs) results live.
func RunTrials(procs int, specs []TrialSpec) ([]*engine.Result, error) {
	results := make([]*engine.Result, len(specs))
	if err := Stream(context.Background(), procs, specs, collect(results)); err != nil {
		var pe *PartialError
		if errors.As(err, &pe) {
			// Preserve the historical error shape ("sim: trial i: ...",
			// lowest failing index first) for existing callers.
			return nil, fmt.Errorf("sim: %w", pe.Err)
		}
		return nil, err
	}
	return results, nil
}
