package adversary

import (
	"fmt"
	"math"

	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/msg"
	"rcbcast/internal/rng"
)

// affordableJams caps a desired jam count by the pool's remaining budget.
func affordableJams(pool *energy.Pool, want int64) int64 {
	if pool == nil {
		return want
	}
	rem := pool.Remaining()
	if rem < want {
		return rem
	}
	return want
}

// jamSpread marks `count` jams spread evenly over [0, length) with a
// random phase offset, so the jammed set is uncorrelated with any
// prefix/suffix structure while remaining O(count) to build. Against
// listeners who sample slots uniformly at random, an evenly spread set of
// a given size is exactly as harmful as any other set of that size.
func jamSpread(p *Plan, length int, count int64, st *rng.Stream) {
	if count <= 0 || length <= 0 {
		return
	}
	if count >= int64(length) {
		p.JamRange(0, length)
		return
	}
	stride := float64(length) / float64(count)
	offset := st.Float64() * stride
	for j := int64(0); j < count; j++ {
		slot := int(offset + float64(j)*stride)
		if slot >= length {
			slot = length - 1
		}
		p.Jam(slot)
	}
}

// FullJam jams every slot of every phase until the pool runs dry — the
// maximal-damage baseline attacker. Its total spend T is essentially its
// budget, making it the canonical adversary for the Theorem 1 cost-scaling
// experiments (E1, E2).
type FullJam struct{}

// Name implements Strategy.
func (FullJam) Name() string { return "full-jam" }

// PlanPhase implements Strategy.
func (FullJam) PlanPhase(ph core.Phase, _ *History, pool *energy.Pool, _ *rng.Stream) *Plan {
	want := affordableJams(pool, int64(ph.Length))
	if want <= 0 {
		return nil
	}
	p := NewPlan(ph.Length)
	p.JamRange(0, int(want))
	return p
}

// RandomJam jams each slot independently with probability P.
type RandomJam struct {
	P float64
}

// Name implements Strategy.
func (s RandomJam) Name() string { return fmt.Sprintf("random-jam(p=%.3g)", s.P) }

// PlanPhase implements Strategy. It jams the slots of a geometric
// schedule over the phase, up to the affordable count: the slots one
// scalar GeometricLnQ draw per jam would place, drawn a block at a time
// by GeometricSlots. A P of 1 or more jams the first affordable slots
// without drawing; a zero or NaN P jams nothing. It requires ph.Length
// <= MaxInt32, as the engine's phases are.
func (s RandomJam) PlanPhase(ph core.Phase, _ *History, pool *energy.Pool, st *rng.Stream) *Plan {
	budget := affordableJams(pool, int64(ph.Length))
	if !(s.P > 0) || budget <= 0 {
		return nil
	}
	p := NewPlan(ph.Length)
	if s.P >= 1 {
		p.JamRange(0, int(budget))
		return p
	}
	lnQ := math.Log1p(-s.P)
	var slots [64]int32
	var planned int64
	for pos := 0; planned < budget; {
		n, done := st.GeometricSlots(lnQ, pos, ph.Length, slots[:min(budget-planned, int64(len(slots)))])
		for _, slot := range slots[:n] {
			p.Jam(int(slot))
		}
		planned += int64(n)
		if done {
			break
		}
		pos = int(slots[n-1]) + 1
	}
	if planned == 0 {
		p.Release()
		return nil
	}
	return p
}

// Bursty alternates Burst jammed slots with Gap silent ones — the
// rate-limited bursty jammer of Awerbuch et al. discussed in §1.2.
type Bursty struct {
	Burst int
	Gap   int
}

// Name implements Strategy.
func (s Bursty) Name() string { return fmt.Sprintf("bursty(%d/%d)", s.Burst, s.Gap) }

// PlanPhase implements Strategy.
func (s Bursty) PlanPhase(ph core.Phase, _ *History, pool *energy.Pool, st *rng.Stream) *Plan {
	if s.Burst <= 0 {
		return nil
	}
	gap := s.Gap
	if gap < 0 {
		gap = 0
	}
	p := NewPlan(ph.Length)
	budget := affordableJams(pool, int64(ph.Length))
	var planned int64
	// Random initial offset so bursts are not phase-aligned.
	slot := st.Intn(s.Burst + gap + 1)
	for slot < ph.Length && planned < budget {
		for b := 0; b < s.Burst && slot < ph.Length && planned < budget; b++ {
			p.Jam(slot)
			planned++
			slot++
		}
		slot += gap
	}
	if planned == 0 {
		p.Release()
		return nil
	}
	return p
}

// PhaseBlocker is Carol's optimal delay strategy from Lemma 10: in every
// round, jam the targeted phases for as long as the pool affords the
// *whole* block (a partial block is wasted energy, so she stops cleanly
// when she can no longer block — which is exactly when the protocol
// completes).
//
// The paper's asymptotic "blocked" threshold is half the phase; at
// laptop-scale n the protocol's w.h.p. margins are wide enough that
// half-jamming barely dents delivery (an informative reproduction finding
// — see EXPERIMENTS.md), so the default Fraction is 1.0: jam the entire
// phase. The cost asymptotics Lemma 10 relies on — Θ(phase length) per
// blocked phase — are identical at any constant fraction.
type PhaseBlocker struct {
	// BlockInform / BlockPropagate / BlockRequest select the targets.
	// Blocking inform or propagation stalls message dissemination;
	// blocking request phases keeps Alice and the nodes running extra
	// rounds (the spoof-adjacent attack of §2.2).
	BlockInform    bool
	BlockPropagate bool
	BlockRequest   bool
	// Fraction of each targeted phase to jam (default 1.0; set ~0.55 to
	// reproduce the paper's literal threshold).
	Fraction float64
	// Params supplies BlockedFraction; required.
	Params *core.Params
}

// Name implements Strategy.
func (s PhaseBlocker) Name() string {
	return fmt.Sprintf("phase-blocker(inform=%t,prop=%t,req=%t)",
		s.BlockInform, s.BlockPropagate, s.BlockRequest)
}

func (s PhaseBlocker) targets(kind core.PhaseKind) bool {
	switch kind {
	case core.PhaseInform:
		return s.BlockInform
	case core.PhasePropagate:
		return s.BlockPropagate
	case core.PhaseRequest:
		return s.BlockRequest
	default:
		return false
	}
}

// PlanPhase implements Strategy.
func (s PhaseBlocker) PlanPhase(ph core.Phase, _ *History, pool *energy.Pool, st *rng.Stream) *Plan {
	if !s.targets(ph.Kind) || s.Params == nil {
		return nil
	}
	frac := s.Fraction
	if frac <= 0 {
		frac = 1.0
	}
	if frac > 1 {
		frac = 1
	}
	want := int64(frac * float64(ph.Length))
	if want > int64(ph.Length) {
		want = int64(ph.Length)
	}
	if want <= 0 {
		return nil
	}
	if affordableJams(pool, want) < want {
		return nil // cannot block: spend nothing (Lemma 10's stopping rule)
	}
	p := NewPlan(ph.Length)
	jamSpread(p, ph.Length, want, st)
	return p
}

// PartitionBlocker is the n-uniform stranding attack of §2.3: Carol jams
// the inform and propagation phases but *spares every listener outside a
// chosen stranded set*, so the rest of the network receives m and the
// request phases go quiet — at which point everyone terminates and the
// stranded set is left uninformed forever. This is the attack that makes
// the (1-ε) in Theorem 1 tight.
type PartitionBlocker struct {
	// Stranded reports whether a node is in the stranded set.
	Stranded func(node int) bool
	// StopAfterRounds bounds her spend: she only needs to maintain the
	// partition until the quiet test fires (0 = keep going while the
	// pool lasts).
	StopAfterRounds int
	startRound      int
}

// Name implements Strategy.
func (s *PartitionBlocker) Name() string { return "partition-blocker" }

// PlanPhase implements Strategy.
func (s *PartitionBlocker) PlanPhase(ph core.Phase, hist *History, pool *energy.Pool, _ *rng.Stream) *Plan {
	if ph.Kind == core.PhaseRequest || s.Stranded == nil {
		return nil
	}
	if s.startRound == 0 {
		s.startRound = ph.Round
	}
	if s.StopAfterRounds > 0 && ph.Round >= s.startRound+s.StopAfterRounds {
		return nil
	}
	want := affordableJams(pool, int64(ph.Length))
	if want < int64(ph.Length) {
		return nil // partial partition leaks m into the stranded set
	}
	p := NewPlan(ph.Length)
	p.JamRange(0, ph.Length)
	p.SetDisrupt(func(_, listener int) bool { return s.Stranded(listener) })
	return p
}

// NackSpoofer is the §2.2 spoofing attack: Carol's Byzantine devices
// transmit forged NACKs during request phases so the channel never goes
// quiet, tricking Alice (and the nodes) into running extra rounds. Rate
// is the per-slot spoof probability (default 0.5 — enough that most of
// Alice's listen samples are noisy).
type NackSpoofer struct {
	Rate float64
	// MaxRounds bounds the attack (0 = while the pool lasts).
	MaxRounds  int
	startRound int
}

// Name implements Strategy.
func (s *NackSpoofer) Name() string { return "nack-spoofer" }

// PlanPhase implements Strategy.
func (s *NackSpoofer) PlanPhase(ph core.Phase, _ *History, pool *energy.Pool, st *rng.Stream) *Plan {
	if ph.Kind != core.PhaseRequest {
		return nil
	}
	if s.startRound == 0 {
		s.startRound = ph.Round
	}
	if s.MaxRounds > 0 && ph.Round >= s.startRound+s.MaxRounds {
		return nil
	}
	rate := s.Rate
	if rate <= 0 {
		rate = 0.5
	}
	budget := affordableJams(pool, int64(ph.Length))
	if budget <= 0 {
		return nil
	}
	p := NewPlan(ph.Length)
	var planned int64
	slot := 0
	for planned < budget {
		g := st.Geometric(rate)
		if g >= ph.Length-slot {
			break
		}
		slot += g
		// A different Byzantine device id per spoof keeps the frames
		// plausible; ids beyond the correct range mark Byzantine
		// senders in the simulator's accounting.
		p.Inject(slot, msg.SpoofNack(-1000-int(planned)))
		planned++
		slot++
		if slot >= ph.Length {
			break
		}
	}
	if planned == 0 {
		p.Release()
		return nil
	}
	return p
}

// ReactiveJammer implements the §4.1 threat: within each slot Carol
// senses RSSI activity and jams exactly the slots where the correct side
// is transmitting. Without decoy traffic this silences the protocol at
// minimal cost (she spends only on genuinely used slots); with decoys she
// cannot tell m from chaff and is forced to pay for a constant fraction
// of *all* slots.
type ReactiveJammer struct{}

// Name implements Strategy.
func (ReactiveJammer) Name() string { return "reactive-jammer" }

// PlanPhase implements Strategy — the non-reactive fallback (used if the
// engine refuses reactive information): jam nothing.
func (ReactiveJammer) PlanPhase(core.Phase, *History, *energy.Pool, *rng.Stream) *Plan {
	return nil
}

// PlanReactive implements Reactive: jam every affordable active slot of
// the inform and propagation phases, in slot order. Request phases are
// deliberately skipped — their activity is NACKs, which only *help* Carol
// by keeping everyone awake; jamming them would waste her pool (and the
// data she wants to suppress never flows there).
func (ReactiveJammer) PlanReactive(ph core.Phase, activity *Bitmap, _ *History, pool *energy.Pool, _ *rng.Stream) *Plan {
	if ph.Kind == core.PhaseRequest {
		return nil
	}
	budget := affordableJams(pool, int64(activity.Count()))
	if budget <= 0 {
		return nil
	}
	p := NewPlan(ph.Length)
	var planned int64
	// Walk only the active slots (word-parallel skip over silence): the
	// jam set — the first `budget` active slots in order — is identical
	// to the per-slot Get loop's.
	for slot := activity.NextSet(0); slot >= 0 && planned < budget; slot = activity.NextSet(slot + 1) {
		p.Jam(slot)
		planned++
	}
	return p
}

// Compile-time interface checks.
var (
	_ Strategy = Null{}
	_ Strategy = FullJam{}
	_ Strategy = RandomJam{}
	_ Strategy = Bursty{}
	_ Strategy = PhaseBlocker{}
	_ Strategy = (*PartitionBlocker)(nil)
	_ Strategy = (*NackSpoofer)(nil)
	_ Reactive = ReactiveJammer{}
)
