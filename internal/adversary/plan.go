// Package adversary implements Carol and her f·n Byzantine devices.
//
// Carol plans one phase at a time. Before each phase the engine hands the
// installed Strategy the phase descriptor plus the public history of the
// execution so far (she is *adaptive*: full information about past
// behaviour, §1.1). A strategy that also implements Reactive is shown the
// current phase's RSSI activity bitmap — which slots carry correct-side
// transmissions, but never their content — matching the §4.1 reactive
// model. The plan it returns commits, for every slot of the phase, whether
// to jam, which listeners the jam disrupts (n-uniform targeting), and any
// spoofed frames to inject.
//
// Energy is enforced by the engine, not trusted to strategies: plans are
// charged against the adversary Pool in slot order and truncated when the
// pool runs dry.
package adversary

import (
	"math/bits"
	"slices"
	"sync"

	"rcbcast/internal/bitset"
	"rcbcast/internal/msg"
)

// Bitmap is a fixed-length bitset over the slots of one phase — a thin
// slot-vocabulary veneer over bitset.Set, the word-level substrate it
// shares with the batched engine kernel's reception state. The zero
// value is an empty bitmap; size it with NewBitmap or Reset.
type Bitmap struct {
	bs bitset.Set
}

// NewBitmap returns an all-zero bitmap over n slots.
func NewBitmap(n int) *Bitmap {
	b := &Bitmap{}
	b.Reset(n)
	return b
}

// Reset re-sizes the bitmap to n all-zero slots in place, reusing the
// word buffer when it is large enough — the engine recycles one bitmap
// value across phases (and, via its Scratch, across runs) this way.
func (b *Bitmap) Reset(n int) { b.bs.Reset(n) }

// Len returns the number of slots.
func (b *Bitmap) Len() int { return b.bs.Len() }

// Set marks slot; out-of-range slots are ignored.
func (b *Bitmap) Set(slot int) { b.bs.Set(slot) }

// Clear unmarks slot.
func (b *Bitmap) Clear(slot int) { b.bs.Clear(slot) }

// Get reports whether slot is marked.
func (b *Bitmap) Get(slot int) bool { return b.bs.Get(slot) }

// Count returns the number of marked slots (a word-parallel popcount).
func (b *Bitmap) Count() int { return b.bs.Count() }

// NextSet returns the first marked slot at or after slot, or -1 when
// none remains. Reactive strategies walk only the active slots of a
// phase this way — zero words are skipped whole — instead of testing
// every slot.
func (b *Bitmap) NextSet(slot int) int { return b.bs.NextSet(slot) }

// OrBits folds the marked bits of s into the bitmap. The lengths must
// match; the batch kernel derives the reactive RSSI view this way (one
// word-level union of the busy set instead of a per-dirty-slot loop).
func (b *Bitmap) OrBits(s *bitset.Set) { b.bs.Or(s) }

// Injection is a spoofed frame the adversary transmits in a slot. It
// occupies the channel like any transmission: a solo injection is received
// (and fails authentication if it imitates Alice); otherwise it collides.
type Injection struct {
	Slot  int
	Frame msg.Frame
}

// Plan is the adversary's committed behaviour for one phase.
type Plan struct {
	length     int
	jam        Bitmap
	disrupt    func(slot, listener int) bool
	injections []Injection
}

// planPool recycles plans across phases and runs. Strategies allocate a
// plan per phase through NewPlan; the engine hands each plan back via
// Release once the phase's listens are resolved, so the steady-state
// allocation rate of a tight trial loop is zero however many phases it
// executes. A plan carries no state between uses — NewPlan re-zeroes the
// jam bitmap, injections, and targeting predicate.
var planPool = sync.Pool{New: func() any { return new(Plan) }}

// NewPlan returns an empty plan for a phase of the given length.
func NewPlan(length int) *Plan {
	p := planPool.Get().(*Plan)
	if length < 0 {
		length = 0
	}
	p.length = length
	p.jam.Reset(length)
	p.disrupt = nil
	p.injections = p.injections[:0]
	return p
}

// Release returns the plan to the allocation pool. Only the engine calls
// it, after the phase the plan commits is fully resolved; a released
// plan (and any slice obtained from its Injections) must not be used
// again.
func (p *Plan) Release() { planPool.Put(p) }

// Length returns the phase length the plan was built for.
func (p *Plan) Length() int { return p.length }

// Jam marks a slot for jamming.
func (p *Plan) Jam(slot int) { p.jam.Set(slot) }

// JamRange marks slots [from, to) for jamming. Interior words of the
// mask are filled whole, so a phase-wide jam (FullJam's every phase)
// costs length/64 stores rather than a read-modify-write per slot.
func (p *Plan) JamRange(from, to int) {
	if to > p.length {
		to = p.length
	}
	p.jam.bs.SetRange(from, to)
}

// Unjam clears a slot, e.g. during budget truncation.
func (p *Plan) Unjam(slot int) { p.jam.Clear(slot) }

// Jammed reports whether the plan jams the slot.
func (p *Plan) Jammed(slot int) bool { return p.jam.Get(slot) }

// JamCount returns the number of jammed slots (the plan's jam cost).
func (p *Plan) JamCount() int { return p.jam.Count() }

// SetDisrupt installs the n-uniform targeting predicate: which listeners
// perceive a jammed slot as noise. nil (the default) disrupts everyone.
// f must be a pure function of its arguments: the batch kernel asks it
// about several listeners' walks interleaved, in no fixed order.
func (p *Plan) SetDisrupt(f func(slot, listener int) bool) { p.disrupt = f }

// Disrupts reports whether a jam in the slot disrupts the listener. Only
// meaningful when Jammed(slot).
func (p *Plan) Disrupts(slot, listener int) bool {
	if p.disrupt == nil {
		return true
	}
	return p.disrupt(slot, listener)
}

// UntargetedJams returns the words of p's jam mask (slot s is jammed
// when bit s%64 of word s/64 is set) and reports whether they alone
// decide every listener's noise over slots [0, length): p installs no
// targeting predicate and was built for at least length slots. The
// slice is the plan's own: read-only, and valid until the next change
// to the plan or Release. The batch kernel counts the jammed slots of a
// run of listens from it without a branch per slot. It is a function,
// not a method, so that custom strategies, which see Plan through the
// rcbcast alias, do not get it.
func UntargetedJams(p *Plan, length int) (words []uint64, ok bool) {
	return p.jam.bs.Words(), p.disrupt == nil && p.length >= length
}

// Inject schedules a spoofed frame. Injections outside [0, length) are
// dropped.
func (p *Plan) Inject(slot int, f msg.Frame) {
	if slot < 0 || slot >= p.length {
		return
	}
	p.injections = append(p.injections, Injection{Slot: slot, Frame: f})
}

// Injections returns the plan's spoofed frames sorted by slot. The
// returned slice is owned by the plan.
func (p *Plan) Injections() []Injection {
	// slices.SortStableFunc rather than sort.SliceStable: no reflection
	// swapper, no per-call closure allocation.
	slices.SortStableFunc(p.injections, func(a, b Injection) int { return a.Slot - b.Slot })
	return p.injections
}

// TruncateJamsAfter keeps only the first keep jammed slots (in slot
// order), clearing the rest. Used by the engine when the pool cannot
// afford the full plan. It returns the number of jams kept.
func (p *Plan) TruncateJamsAfter(keep int64) int64 {
	if keep < 0 {
		keep = 0
	}
	var kept int64
	words := p.jam.bs.Words()
	for w := range words {
		word := words[w]
		if word == 0 {
			continue
		}
		if kept >= keep {
			words[w] = 0
			continue
		}
		c := int64(bits.OnesCount64(word))
		if kept+c <= keep {
			kept += c
			continue
		}
		// Keep only the lowest (keep - kept) set bits of this word.
		var newWord uint64
		for kept < keep {
			low := word & (-word)
			newWord |= low
			word &^= low
			kept++
		}
		words[w] = newWord
	}
	return kept
}

// TruncateInjectionsAfter keeps only the first keep injections in slot
// order and drops the rest, returning how many remain.
func (p *Plan) TruncateInjectionsAfter(keep int64) int64 {
	inj := p.Injections() // sorts
	if keep < 0 {
		keep = 0
	}
	if int64(len(inj)) > keep {
		p.injections = inj[:keep]
	}
	return int64(len(p.injections))
}
