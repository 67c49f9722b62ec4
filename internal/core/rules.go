package core

import "math"

// This file captures the protocol's state-transition rules as pure
// functions so that the kernel, its scalar oracle and the tests share
// one authoritative encoding of "who sends when, and who terminates
// when" (§2, §3).

// InformMark records *when* a node became informed within a round:
// MarkInformPhase if during the inform phase, otherwise the propagation
// step number h in [1, k-1]. Uninformed nodes carry no mark.
type InformMark int

// MarkInformPhase marks nodes informed during the inform phase.
const MarkInformPhase InformMark = 0

// SendStep returns the propagation step (1-based) in which a node with the
// given mark relays m, or 0 if it never relays. A node informed in the
// inform phase sends in step 1 (it is S_{i,1}); a node informed during
// step h sends in step h+1 (it is S_{i,h+1}); a node informed during the
// final step k-1 has no later step and never sends.
func (p *Params) SendStep(mark InformMark) int {
	step := int(mark) + 1
	if step > p.K-1 {
		return 0
	}
	return step
}

// TerminationStep returns the propagation step at whose end a node with
// the given mark terminates: the step it sends in, or — for nodes informed
// in the final step — the final step itself (equivalently, the end of the
// propagation phase, which is what Figure 1's "terminates at the end of
// the phase" means for k = 2).
func (p *Params) TerminationStep(mark InformMark) int {
	step := int(mark) + 1
	if step > p.K-1 {
		return p.K - 1
	}
	return step
}

// BlockedFraction returns the fraction of a phase's slots the adversary
// must jam for the phase to count as blocked in the analysis: 1/2 for
// inform and propagation phases (and steps), and 1-e^{-4ε′} for the
// request phase (§2.2 — "any constant fraction will work; we choose this
// threshold to simplify the analysis").
func (p *Params) BlockedFraction(kind PhaseKind) float64 {
	if kind == PhaseRequest {
		return 1 - math.Exp(-4*p.Epsilon)
	}
	return 0.5
}

// BlockCost returns the number of jammed slots that renders the given
// phase blocked — the minimum spend for Carol to stop that phase from
// making progress. Adversary strategies use this to decide affordability.
func (p *Params) BlockCost(ph Phase) int64 {
	return int64(math.Ceil(p.BlockedFraction(ph.Kind) * float64(ph.Length)))
}

// Schedule iterates the full protocol schedule round by round. A
// Schedule must be initialized with NewSchedule or Reset before use. A
// Schedule value Reset across runs reuses its round buffer, so
// steady-state iteration costs no allocation beyond the buffer's
// high-water mark.
type Schedule struct {
	params *Params
	round  int
	queue  []Phase
	pos    int
}

// NewSchedule returns an iterator positioned at StartRound.
func NewSchedule(params *Params) *Schedule {
	s := &Schedule{}
	s.Reset(params)
	return s
}

// Reset re-points the iterator at params' StartRound, keeping the round
// buffer's capacity.
func (s *Schedule) Reset(params *Params) {
	s.params = params
	s.round = params.StartRound
	s.queue = s.queue[:0]
	s.pos = 0
}

// Next returns the next phase in execution order and true, or a zero Phase
// and false after MaxRound's request phase.
func (s *Schedule) Next() (Phase, bool) {
	if s.pos >= len(s.queue) {
		if s.round > s.params.LastRound() {
			return Phase{}, false
		}
		s.queue = s.params.AppendRound(s.queue[:0], s.round)
		s.pos = 0
		s.round++
	}
	ph := s.queue[s.pos]
	s.pos++
	return ph, true
}

// ExpectedAliceCostPerRound returns Alice's expected send+listen cost in
// round i — O(2^{i/k}·ln^k n) — used by tests to validate load-balancing
// and by DESIGN.md's budget discussion.
func (p *Params) ExpectedAliceCostPerRound(i int) float64 {
	var cost float64
	for _, ph := range p.Round(i) {
		cost += float64(ph.Length) * (ph.AliceSendP + ph.AliceListenP)
	}
	return cost
}

// ExpectedNodeCostPerRound returns an always-active uninformed node's
// expected cost in round i — O(2^{i/k}) up to constants. Actual nodes pay
// less because they stop listening once informed.
func (p *Params) ExpectedNodeCostPerRound(i int) float64 {
	var cost float64
	for _, ph := range p.Round(i) {
		cost += float64(ph.Length) * (ph.NodeListenP + ph.NodeSendP + ph.DecoyP)
	}
	return cost
}
