package scenario

import (
	"fmt"

	"rcbcast/internal/sim"
)

// Shard selects the contiguous trial range [Lo, Hi) of a sweep — the
// unit of distribution for multi-machine runs (internal/dist) and the
// rcexp -shard mode. A shard is meaningful only relative to a sweep
// spec: the scenario, the sweep trial count, and the base seed stay
// those of the *whole* sweep, and the shard's trials keep their
// sweep-global seeds (sim.SweepSeed(base, point, t) for t in [Lo, Hi))
// and sweep-global trial indices. That is what makes any partition of a
// sweep into shards recompose byte-identically: concatenating the
// shards' NDJSON outputs in shard order reproduces the single-machine
// run exactly.
//
// The zero Shard means "the whole sweep" — [0, trials) without shard
// semantics.
type Shard struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// IsZero reports whether the shard is the whole-sweep zero value.
func (sh Shard) IsZero() bool { return sh == Shard{} }

// Len returns the shard's trial count.
func (sh Shard) Len() int { return sh.Hi - sh.Lo }

// String renders the half-open range, e.g. "[100,200)".
func (sh Shard) String() string { return fmt.Sprintf("[%d,%d)", sh.Lo, sh.Hi) }

// Validate reports the first violated constraint of a shard of a sweep
// with `trials` trials, or nil. The zero shard is always valid; a
// non-zero shard must be a non-empty sub-range of [0, trials).
func (sh Shard) Validate(trials int) error {
	switch {
	case sh.IsZero():
		return nil
	case sh.Lo < 0:
		return fmt.Errorf("scenario: shard lo must be >= 0 (got %d)", sh.Lo)
	case sh.Hi <= sh.Lo:
		return fmt.Errorf("scenario: shard %s is empty (hi must exceed lo)", sh)
	case sh.Hi > trials:
		return fmt.Errorf("scenario: shard %s exceeds the sweep's %d trials", sh, trials)
	}
	return nil
}

// CutShard returns the i-th of n contiguous, near-equal shards of a
// sweep with `trials` trials — the rcexp -shard i/N partition. The
// shards cover [0, trials) exactly: shard i is
// [i·trials/n, (i+1)·trials/n), so uneven divisions spread the
// remainder over the later shards. An empty cut (more shards than
// trials) is an error rather than a silent no-op shard.
func CutShard(trials, i, n int) (Shard, error) {
	if n <= 0 {
		return Shard{}, fmt.Errorf("scenario: shard count must be positive (got %d)", n)
	}
	if i < 0 || i >= n {
		return Shard{}, fmt.Errorf("scenario: shard index %d out of range [0, %d)", i, n)
	}
	sh := Shard{Lo: i * trials / n, Hi: (i + 1) * trials / n}
	if sh.Len() == 0 {
		return Shard{}, fmt.Errorf("scenario: shard %d/%d of %d trials is empty — use at most %d shards", i, n, trials, trials)
	}
	return sh, nil
}

// ShardSpecs returns the trial specs for one shard of a Monte-Carlo
// sweep point: trials [sh.Lo, sh.Hi) of the `trials`-trial sweep,
// seeded with the sweep-global sim.SweepSeed(base, point, t), so they
// are the [sh.Lo, sh.Hi) slice of the whole sweep's specs. The zero
// shard selects the whole sweep. The scenario is resolved once; the
// specs differ only in their seeds (the shared factories mint fresh
// per-trial state regardless).
func (s Scenario) ShardSpecs(base uint64, point, trials int, sh Shard) ([]sim.TrialSpec, error) {
	if err := sh.Validate(trials); err != nil {
		return nil, err
	}
	if sh.IsZero() {
		sh = Shard{Lo: 0, Hi: trials}
	}
	proto, err := s.TrialSpec(0)
	if err != nil {
		return nil, err
	}
	specs := make([]sim.TrialSpec, sh.Len())
	for t := range specs {
		specs[t] = proto
		specs[t].Seed = sim.SweepSeed(base, point, sh.Lo+t)
	}
	return specs, nil
}
