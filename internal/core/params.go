// Package core implements the ε-BROADCAST protocol of Gilbert & Young,
// "Making Evildoers Pay: Resource-Competitive Broadcast in Sensor
// Networks" (PODC 2012) — the paper's primary contribution.
//
// The protocol proceeds in rounds i = 1, 2, ... Each round has three
// phases (Figure 1 for k = 2, Figure 2 for general k ≥ 2):
//
//	Inform:      Alice transmits m with a per-slot probability; uninformed
//	             nodes sample the channel. Creates the seed set S_{i,1}.
//	Propagation: k-1 steps; nodes informed in the previous phase/step
//	             relay m with probability 1/n per slot and terminate at
//	             the end of their step. Grows S_{i,1} → ... → S_{i,k-1} →
//	             everyone (when Carol cannot afford to block).
//	Request:     uninformed nodes NACK with probability 1/n; Alice and
//	             the uninformed nodes terminate if they hear at most
//	             5c·ln n noisy slots (the "quiet test", §2.2).
//
// This package is the protocol *specification*: parameters, the round
// schedule with every per-slot probability, and the node/Alice state rules
// as pure functions. The simulation loops that execute the specification
// live in internal/engine, which keeps the protocol reusable by both the
// batch kernel and the scalar reference loop it is tested against.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Variant selects which figure's probability constants are used.
type Variant uint8

const (
	// VariantGeneralK is Figure 2, valid for any k >= 2 (the canonical
	// form; substitutes a = 1/k, b = 1).
	VariantGeneralK Variant = iota
	// VariantK2Exact is Figure 1 verbatim; requires K == 2. Differs from
	// VariantGeneralK at k = 2 only in logarithmic factors (DESIGN.md §2).
	VariantK2Exact
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case VariantGeneralK:
		return "general-k"
	case VariantK2Exact:
		return "k2-exact"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Params fully determines an ε-BROADCAST instance. The zero value is not
// runnable; construct with PaperParams or PracticalParams and adjust.
type Params struct {
	// N is the number of correct nodes.
	N int
	// K is the protocol parameter k >= 2 of Theorem 1. Larger K improves
	// the resource-competitive exponent 1/(K+1) at the price of Θ(K)
	// more phases per round (§3.2 shows K = ω(1) is impossible).
	K int
	// Epsilon is ε′ > 0: the quiet-test scale. Up to O(ε′)·N nodes may
	// terminate uninformed (Theorem 1's ε after renormalization).
	Epsilon float64
	// C is the protocol constant c > 0 appearing in the sending/listening
	// probabilities and in the 5c·ln n termination threshold.
	C float64
	// Variant selects Figure 1 or Figure 2 probabilities.
	Variant Variant

	// StartRound is the first round index i. The paper notes any constant
	// start works (§2.3); practical deployments skip the rounds whose
	// probabilities clamp at 1.
	StartRound int
	// MaxRound caps the rounds simulated. Zero means the natural limit
	// lg n + 4 (the analysis shows Carol cannot block beyond lg n + O(1)
	// when budgets are respected).
	MaxRound int

	// Decoy enables the §4.1 defence against reactive jamming: each
	// active correct node transmits cover traffic during inform and
	// propagation phases so a reactive Carol cannot tell m from chaff.
	Decoy bool
	// DecoyProb is the per-slot decoy probability. Zero selects the
	// paper's 3/(4ε′n).
	DecoyProb float64
	// ListenBoost multiplies node listening probabilities in decoy mode
	// to compensate for decoy-on-decoy collisions. Zero selects a
	// practical constant (the paper's 16e^{3/(2ε′)}/(ε′(1-δ′)) formula is
	// a worst-case artifact; see DESIGN.md §3).
	ListenBoost float64

	// LnOverride, if positive, replaces ln N in every probability — the
	// §4.2 approximate-parameter mode (nodes know ln n only to a
	// constant factor).
	LnOverride float64
	// NOverride, if positive, replaces N in the 1/n sending
	// probabilities (§4.2: nodes share only an estimate of n).
	NOverride float64
	// PolyEstimate, if > 1, enables the §4.2 polynomial-overestimate
	// mode: nodes know only ν = n^{c'} >= n. Every propagation step and
	// the request phase are swept over sub-phases g = 1..⌈lg ν⌉ with
	// sending probability 1/2^g, so some sub-phase uses the correct
	// scale to within a factor of 2. Costs and latency grow by the
	// Θ(lg ν) factor the paper concedes. The value is ν itself.
	PolyEstimate float64

	// Quiet selects the request-phase termination test. The paper's
	// absolute test (noisy slots <= 5c ln n) discriminates "few
	// uninformed remain" from "many remain" only when ε′ is tiny
	// (Lemmas 5 and 7 need ε′ <= 1/32 and <= 1/1024 respectively), which
	// is unaffordable at laptop-scale n. QuietFraction implements the
	// same intent — terminate iff the *fraction* of noisy listen slots is
	// at most QuietFrac — and discriminates at every scale. PaperParams
	// uses QuietAbsolute; PracticalParams uses QuietFraction. See
	// DESIGN.md §3.
	Quiet QuietMode
	// QuietFrac is the noisy-fraction termination threshold for
	// QuietFraction mode. Zero selects 2ε′ (allowing roughly a 2ε′
	// fraction of nodes to be stranded, the paper's ε after
	// renormalization).
	QuietFrac float64
	// QuietMinListens gates the fraction test: a device applies it only
	// after at least this many listens in the phase, so early short
	// rounds cannot trigger spurious termination. Zero selects
	// ceil(c·ln n).
	QuietMinListens int
	// MinTerminationRound is the earliest round in which the quiet test
	// may fire — the paper's §2.3 rule that a node "run until at least
	// its respective estimate of d·lg ln n is reached before
	// terminating" (d ≥ 3): with the absolute test, early short rounds
	// would trivially pass it (few listens ≤ 5c·ln n). Zero selects
	// ⌈3·lg ln n⌉ in QuietAbsolute mode; the fraction test is already
	// gated by QuietMinListens, so zero disables the guard there.
	MinTerminationRound int
}

// QuietMode selects the request-phase termination test.
type QuietMode uint8

const (
	// QuietAbsolute is the paper's test: terminate iff at most 5c·ln n
	// noisy slots were heard in the request phase.
	QuietAbsolute QuietMode = iota
	// QuietFraction terminates iff (noisy listens)/(listens) <= QuietFrac
	// and at least QuietMinListens listens occurred.
	QuietFraction
)

// String names the quiet mode.
func (q QuietMode) String() string {
	switch q {
	case QuietAbsolute:
		return "absolute"
	case QuietFraction:
		return "fraction"
	default:
		return fmt.Sprintf("QuietMode(%d)", uint8(q))
	}
}

// PaperParams returns the protocol exactly as analyzed: Figure 1
// probabilities for k = 2, Figure 2 otherwise, starting at round 1 with
// c = 1 and ε′ = 1/64. Constants follow the paper's formulas even where
// they are pessimistic; use PracticalParams for experiments at laptop n.
func PaperParams(n, k int) Params {
	v := VariantGeneralK
	if k == 2 {
		v = VariantK2Exact
	}
	return Params{
		N:          n,
		K:          k,
		Epsilon:    1.0 / 64,
		C:          1,
		Variant:    v,
		StartRound: 1,
	}
}

// PracticalParams returns parameters tuned for simulations at n in the
// thousands: the same functional forms with a larger ε′ (cheaper
// listening), and a start round chosen past the regime where listening
// probabilities clamp at 1 (the paper's own suggestion, §2.3). These are
// the defaults used by the experiment harness.
func PracticalParams(n, k int) Params {
	p := PaperParams(n, k)
	p.Epsilon = 1.0 / 16
	p.Quiet = QuietFraction
	// Start at the first round where no *node* probability is clamped at
	// 1 (the paper's own observation that any agreed-upon start works;
	// starting inside the clamp region only wastes energy). Alice's
	// Figure-2 send probability 2c·ln^k n/2^i can stay clamped much
	// longer at small n; that is a finite-size effect the experiments
	// document, not a reason to delay every node.
	p.StartRound = 1
	for i := 1; i < 62; i++ {
		clamped := false
		for _, ph := range p.Round(i) {
			if ph.NodeListenP >= 1 || ph.NodeSendP >= 1 {
				clamped = true
				break
			}
		}
		if !clamped {
			p.StartRound = i
			break
		}
	}
	return p
}

// EnableDecoy turns on the §4.1 decoy defence with the constants the
// repo's experiments and CLIs standardize on: DecoyProb = 3/(4n), so
// roughly half of all slots carry chaff at practical ε′, and
// ListenBoost = 4 to compensate decoy-on-decoy collisions (DESIGN.md
// §3 derives both). This is the single source of truth for the
// defence's tuning — adjust DecoyProb/ListenBoost afterwards to
// deviate.
func (p *Params) EnableDecoy() {
	p.Decoy = true
	p.DecoyProb = 0.75 / float64(p.N)
	p.ListenBoost = 4
}

// quietFrac returns the effective fraction threshold.
func (p *Params) quietFrac() float64 {
	if p.QuietFrac > 0 {
		return p.QuietFrac
	}
	return 2 * p.Epsilon
}

// quietMinListens returns the effective listen gate.
func (p *Params) quietMinListens() int {
	if p.QuietMinListens > 0 {
		return p.QuietMinListens
	}
	return int(math.Ceil(p.C * p.LnN()))
}

// CanTerminate reports whether the quiet test may fire in the given
// round (§2.3's d·lg ln n warm-up for the absolute test).
func (p *Params) CanTerminate(round int) bool {
	min := p.MinTerminationRound
	if min == 0 && p.Quiet == QuietAbsolute {
		min = int(math.Ceil(3 * math.Log2(math.Max(p.LnN(), 2))))
	}
	return round >= min
}

// ShouldTerminateQuiet decides the request-phase quiet test given how many
// slots the device listened to and how many of those were noisy (a
// received NACK counts as noisy, §2.2).
func (p *Params) ShouldTerminateQuiet(listens, noisy int) bool {
	switch p.Quiet {
	case QuietFraction:
		if listens < p.quietMinListens() {
			return false
		}
		return float64(noisy) <= p.quietFrac()*float64(listens)
	default: // QuietAbsolute, the paper's test
		return noisy <= p.NoisyThreshold()
	}
}

// Validation errors.
var (
	ErrBadN       = errors.New("core: N must be >= 2")
	ErrBadK       = errors.New("core: K must be >= 2")
	ErrBadEpsilon = errors.New("core: Epsilon must be in (0, 1)")
	ErrBadC       = errors.New("core: C must be > 0")
	ErrBadVariant = errors.New("core: VariantK2Exact requires K == 2")
	ErrBadRounds  = errors.New("core: StartRound must be >= 1 and <= MaxRound")
)

// Validate reports the first violated constraint, or nil.
func (p *Params) Validate() error {
	switch {
	case p.N < 2:
		return fmt.Errorf("%w (got %d)", ErrBadN, p.N)
	case p.K < 2:
		return fmt.Errorf("%w (got %d)", ErrBadK, p.K)
	case p.Epsilon <= 0 || p.Epsilon >= 1:
		return fmt.Errorf("%w (got %v)", ErrBadEpsilon, p.Epsilon)
	case p.C <= 0:
		return fmt.Errorf("%w (got %v)", ErrBadC, p.C)
	case p.Variant == VariantK2Exact && p.K != 2:
		return fmt.Errorf("%w (got K=%d)", ErrBadVariant, p.K)
	case p.StartRound < 1:
		return fmt.Errorf("%w (StartRound=%d)", ErrBadRounds, p.StartRound)
	case p.MaxRound != 0 && p.MaxRound < p.StartRound:
		return fmt.Errorf("%w (StartRound=%d MaxRound=%d)", ErrBadRounds, p.StartRound, p.MaxRound)
	}
	return nil
}

// LnN returns the ln n every probability formula uses: the natural log of
// N, at least 1 (so tiny test networks stay well-defined), or LnOverride.
func (p *Params) LnN() float64 {
	if p.LnOverride > 0 {
		return p.LnOverride
	}
	return math.Max(math.Log(float64(p.N)), 1)
}

// EffectiveN returns the n used in the 1/n sending probabilities
// (NOverride if set).
func (p *Params) EffectiveN() float64 {
	if p.NOverride > 0 {
		return p.NOverride
	}
	return float64(p.N)
}

// LastRound returns the configured or natural final round index.
func (p *Params) LastRound() int {
	if p.MaxRound != 0 {
		return p.MaxRound
	}
	return int(math.Ceil(math.Log2(float64(p.N)))) + 4
}

// NoisyThreshold is the request-phase quiet test: Alice and uninformed
// nodes terminate after a request phase in which they heard at most this
// many noisy slots (5c·ln n, §2.2).
func (p *Params) NoisyThreshold() int {
	return int(math.Ceil(5 * p.C * p.LnN()))
}

// decoyProb returns the per-slot decoy transmission probability.
func (p *Params) decoyProb() float64 {
	if !p.Decoy {
		return 0
	}
	if p.DecoyProb > 0 {
		return p.DecoyProb
	}
	return 3 / (4 * p.Epsilon * p.EffectiveN())
}

// listenBoost returns the decoy-mode listening multiplier.
func (p *Params) listenBoost() float64 {
	if !p.Decoy {
		return 1
	}
	if p.ListenBoost > 0 {
		return p.ListenBoost
	}
	// Practical default: a small constant covering the ≤ e^{-3/(2ε′)}
	// chance a given slot is decoy-occupied at practical ε′.
	return 4
}
