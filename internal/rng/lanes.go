package rng

import (
	"math"
	"math/bits"
)

// Lanes advances up to eight geometric slot schedules side by side, one
// per lane, each over its own stream, probability and phase length. A
// lane places exactly the slots a SlotSchedule over the same stream
// would: Draw is GeometricSlots for every live lane at once. On the
// AVX-512 path one kernel call (laneSlots8Asm) steps the eight streams
// together, word-major in four zmm registers, so its xoshiro steps and
// log chains overlap across lanes instead of serializing within one
// stream as geoSlots8Asm's do. Its cost does not depend on how many
// lanes are live; callers keep the lanes full and finish stragglers on
// the single-stream path (Handoff, then GeometricSlots). After a Draw,
// Bits reads a bitset at the new slots of the lanes it is asked for
// (one AVX-512 gather per lane, laneBits8Asm), so a caller can test a
// whole block of slots against a per-slot mask with a few popcounts.
//
// Like GeometricSlots, a lane draws whole blocks: the block in which its
// schedule ends is drawn to its end, so the stream is left ahead of the
// scalar schedule's. That is safe only where the stream is re-keyed
// before its next use.
type Lanes struct {
	st    laneState
	lnQ   [8]float64
	live  uint8
	slots [8][laneBlock]int32
	// The last probability started, with its lnQ and 1/lnQ: the lanes
	// of a phase usually share one, so most Starts skip the log.
	lastP, lastLnQ, lastInv float64
}

// laneBlock caps the draws of one lane in one Draw: two rounds of the
// kernel's eight, which halves the per-block work of the callers' walks
// against eight while a walk that ends early wastes at most one block.
const laneBlock = 16

// laneState is the kernel's view of the lanes, laid out for
// laneSlots8Asm's fixed offsets: word w of lane j's xoshiro state at
// s[w][j], then 1/lnQ, p, the next draw's origin, the phase length, and
// the slots each lane placed inside its phase in the last call.
type laneState struct {
	s      [4][8]uint64
	invLnQ [8]float64
	p      [8]float64
	pos    [8]int
	length [8]int
	n      [8]int
}

// Start puts a schedule in lane j: st's current state (st is left as
// it is), per-slot probability p and phase [0, length), with no slot
// drawn yet. It requires 0 < p < 1 and 0 < length <= MaxInt32.
func (ls *Lanes) Start(j int, st *Stream, p float64, length int) {
	st.ensure()
	if p != ls.lastP {
		ls.lastP, ls.lastLnQ = p, math.Log1p(-p)
		ls.lastInv = 1 / ls.lastLnQ
	}
	for w, x := range st.s {
		ls.st.s[w][j] = x
	}
	ls.st.invLnQ[j], ls.lnQ[j], ls.st.p[j] = ls.lastInv, ls.lastLnQ, p
	ls.st.pos[j], ls.st.length[j] = 0, length
	ls.live |= 1 << j
}

// Live returns the mask of lanes holding a schedule.
func (ls *Lanes) Live() uint8 { return ls.live }

// Stop empties lane j.
func (ls *Lanes) Stop(j int) { ls.live &^= 1 << j }

// Handoff empties lane j and hands its schedule over to the
// single-stream path: st takes the lane's stream state, and the
// returned pos is where its next draw places from, so GeometricSlots
// (or a BlockSchedule resumed at pos) over st continues the lane's
// slot sequence exactly.
func (ls *Lanes) Handoff(j int, st *Stream) (pos int) {
	for w := range st.s {
		st.s[w] = ls.st.s[w][j]
	}
	st.init = true
	ls.Stop(j)
	return ls.st.pos[j]
}

// Draw draws the next block of every live lane and returns the lanes
// whose schedule ended in it, which it empties. A block is as many
// draws as the hungriest lane expects to need, by the rule
// BlockSchedule's refills use (expected remaining actions plus one, at
// least 2), capped at laneBlock. Slots(j) is lane j's block, valid until
// the next Draw. An ended lane's stream is left unspecified.
func (ls *Lanes) Draw() (ended uint8) {
	if useLaneSlots8 {
		if ended, ok := laneSlots8Asm(&ls.st, &ls.slots, int(ls.live)); ok {
			ls.live &^= ended
			return ended
		}
	}
	return ls.drawGo()
}

// drawGo is Draw's pure-Go path and the exact redo of a call the kernel
// hands back: each live lane draws its k skips eight at a time through
// slots8Go, the block path GeometricSlots takes without the kernel, and
// ends by GeometricSlots's stop rule — a draw fell outside the phase, or
// the last slot landed on the phase's last one.
func (ls *Lanes) drawGo() (ended uint8) {
	live := ls.live
	k := 2
	for m := live; m != 0; m &= m - 1 {
		j := bits.TrailingZeros8(m)
		k = max(k, int(ls.st.p[j]*float64(ls.st.length[j]-ls.st.pos[j]))+1)
	}
	k = min(k, laneBlock)
	for j := range 8 {
		ls.st.n[j] = 0
		if live&(1<<j) == 0 {
			continue
		}
		st := Stream{init: true}
		for w := range st.s {
			st.s[w] = ls.st.s[w][j]
		}
		n, pos, length := 0, ls.st.pos[j], ls.st.length[j]
		for n < k {
			blk := ls.slots[j][n:min(n+8, k)]
			got, next := st.slots8Go(ls.lnQ[j], pos, length, blk)
			n += got
			if got < len(blk) {
				break
			}
			pos = next
		}
		for w, x := range st.s {
			ls.st.s[w][j] = x
		}
		ls.st.n[j], ls.st.pos[j] = n, pos
		if n < k || pos >= length {
			ended |= 1 << j
		}
	}
	ls.live &^= ended
	return ended
}

// Slots returns the slots lane j placed in the last Draw.
func (ls *Lanes) Slots(j int) []int32 { return ls.slots[j][:ls.st.n[j]] }

// Bits gathers the bits of words at the slots of the last Draw, for
// the lanes in the mask lanes: bit i of out[j] is bit Slots(j)[i] of
// words (bit s in words[s>>6] at position s&63), and the bits past a
// lane's count are zero. The entries of lanes outside the mask are left
// as they are, so a caller can fill out from different words for
// different lanes, one call each, and a lane no call asks for costs
// nothing. It panics if a lane in the mask that placed slots has a
// phase longer than words covers.
func (ls *Lanes) Bits(words []uint64, lanes uint8, out *[8]uint16) {
	if useLaneBits8 && len(words) > 0 {
		if laneBits8Asm(&ls.st, &ls.slots, &words[0], 64*len(words), lanes, out) {
			return
		}
		panic("rng: Lanes.Bits: words shorter than a lane's phase")
	}
	for m := lanes; m != 0; m &= m - 1 {
		j := bits.TrailingZeros8(m)
		if ls.st.n[j] > 0 && ls.st.length[j] > 64*len(words) {
			panic("rng: Lanes.Bits: words shorter than a lane's phase")
		}
	}
	ls.bitsGo(words, lanes, out)
}

// bitsGo is Bits's pure-Go path, and the bit-gather's reference.
func (ls *Lanes) bitsGo(words []uint64, lanes uint8, out *[8]uint16) {
	for m := lanes; m != 0; m &= m - 1 {
		j := bits.TrailingZeros8(m)
		out[j] = uint16(SlotBits(words, ls.Slots(j)))
	}
}

// SlotBits returns the bits of words at slots, which holds at most 32:
// bit i of the result is bit slots[i] of words (bit s in words[s>>6] at
// position s&63).
func SlotBits(words []uint64, slots []int32) (m uint32) {
	for i, s := range slots {
		m |= uint32(words[s>>6]>>(s&63)&1) << i
	}
	return m
}
