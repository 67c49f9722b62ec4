package adversary

import (
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/rng"
)

// PhaseOutcome is the public record of one executed phase — what an
// adaptive Carol can observe about past behaviour (§1.1: she has "full
// information on how nodes have behaved (in terms of sending/listening) in
// the past", and as an n-uniform adversary she knows who she has let
// become informed).
type PhaseOutcome struct {
	Phase core.Phase
	// AliceSends counts Alice's transmissions in the phase.
	AliceSends int
	// NodeDataSends counts relays of m by informed nodes.
	NodeDataSends int
	// NodeNacks counts NACKs by uninformed nodes.
	NodeNacks int
	// NodeDecoys counts decoy transmissions.
	NodeDecoys int
	// NodeListens counts listen slots across all correct nodes.
	NodeListens int64
	// AliceListens counts Alice's listen slots.
	AliceListens int64
	// JammedSlots is the adversary's own jamming spend in the phase.
	JammedSlots int64
	// InjectedFrames is the adversary's own spoofing spend in the phase.
	InjectedFrames int64
	// InformedAfter is the number of informed correct nodes at phase end.
	InformedAfter int
	// ActiveAfter is the number of non-terminated correct nodes at phase
	// end.
	ActiveAfter int
	// AliceActiveAfter reports whether Alice is still running.
	AliceActiveAfter bool
}

// History is the adaptive adversary's view of the execution so far.
type History struct {
	// N is the number of correct nodes.
	N int
	// Outcomes holds one record per executed phase, in order.
	Outcomes []PhaseOutcome
}

// Last returns the most recent outcome and true, or false when empty.
func (h *History) Last() (PhaseOutcome, bool) {
	if len(h.Outcomes) == 0 {
		return PhaseOutcome{}, false
	}
	return h.Outcomes[len(h.Outcomes)-1], true
}

// Strategy is an adaptive adversary: it commits a plan for each phase
// knowing everything about the past but nothing about the current phase's
// coin flips.
type Strategy interface {
	// Name identifies the strategy in results and traces.
	Name() string
	// PlanPhase returns the jamming/spoofing commitment for the phase.
	// pool is read-only advice (Remaining tells the strategy what it can
	// still afford); the engine performs the actual charging and
	// truncates plans that overdraw. st is a per-phase deterministic
	// stream dedicated to the strategy, and the call may leave it
	// anywhere past the last draw it used: a strategy may draw ahead
	// in blocks and discard the rest, because the engine and the
	// scalar oracle both re-key the stream before every plan, and a
	// strategy that hands st on re-keys the part it hands (Composite
	// derives one stream per part). Returning nil means "do nothing".
	PlanPhase(ph core.Phase, hist *History, pool *energy.Pool, st *rng.Stream) *Plan
}

// Reactive is a strategy upgrade: within the current slot the adversary
// can detect channel activity (RSSI) before deciding to jam (§4.1). The
// engine calls PlanReactive instead of PlanPhase, passing the bitmap of
// slots that carry at least one correct-side transmission. The bitmap
// never reveals content — a decoy and m look identical, which is exactly
// the lever the §4.1 defence pulls.
type Reactive interface {
	Strategy
	PlanReactive(ph core.Phase, activity *Bitmap, hist *History, pool *energy.Pool, st *rng.Stream) *Plan
}

// Null is the absent adversary.
type Null struct{}

// Name implements Strategy.
func (Null) Name() string { return "null" }

// PlanPhase implements Strategy: no jamming, ever.
func (Null) PlanPhase(core.Phase, *History, *energy.Pool, *rng.Stream) *Plan { return nil }
