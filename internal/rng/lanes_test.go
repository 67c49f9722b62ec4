package rng

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// laneCase is one lane's schedule: its stream key, per-slot probability,
// phase length and the origin of its first draw. A nonzero lnQ replaces
// Log1p(-p) (p then only sizes the blocks), to put a lane's quotient
// where the test wants it.
type laneCase struct {
	seed   uint64
	p      float64
	length int
	pos    int
	lnQ    float64
}

func (c laneCase) lnQOrP() float64 {
	if c.lnQ != 0 {
		return c.lnQ
	}
	return math.Log1p(-c.p)
}

// scalarLane is a lane's schedule by definition: scalar GeometricLnQ
// draws placed one at a time by the SlotSchedule stop rule from pos, up
// to limit slots.
func scalarLane(c laneCase, limit int) []int32 {
	st := New(c.seed)
	lnQ := c.lnQOrP()
	var out []int32
	for pos := c.pos; pos < c.length && len(out) < limit; pos++ {
		g := st.GeometricLnQ(lnQ)
		if g >= c.length-pos {
			break
		}
		pos += g
		out = append(out, int32(pos))
	}
	return out
}

// startLanes starts the lanes of cs that live marks.
func startLanes(ls *Lanes, cs *[8]laneCase, live uint8) {
	for j, c := range cs {
		if live&(1<<j) == 0 {
			continue
		}
		ls.Start(j, New(c.seed), c.p, c.length)
		ls.st.pos[j] = c.pos
		if c.lnQ != 0 {
			ls.lnQ[j], ls.st.invLnQ[j] = c.lnQ, 1/c.lnQ
		}
	}
}

// drawLanes draws until every lane has ended or calls Draws were made,
// and returns each lane's slots in order and the lanes that ended.
func drawLanes(ls *Lanes, calls int) (got [8][]int32, ended uint8) {
	for ; calls > 0 && ls.Live() != 0; calls-- {
		live := ls.Live()
		ended |= ls.Draw()
		for m := live; m != 0; m &= m - 1 {
			j := bits.TrailingZeros8(m)
			got[j] = append(got[j], ls.Slots(j)...)
		}
	}
	return got, ended
}

// checkLanes runs the live lanes of cs for at most calls Draws and
// asserts each lane's slots against scalarLane: the whole schedule for a
// lane that ended, a prefix of it for one still live. It returns the
// lanes and their slots, so a caller can continue the live ones.
func checkLanes(t *testing.T, cs [8]laneCase, live uint8, calls int) (*Lanes, [8][]int32) {
	t.Helper()
	ls := new(Lanes)
	startLanes(ls, &cs, live)
	got, ended := drawLanes(ls, calls)
	for j, c := range cs {
		bit := uint8(1) << j
		if live&bit == 0 {
			if len(got[j]) != 0 || ended&bit != 0 {
				t.Fatalf("lane %d is not live but drew %v (ended %08b)", j, got[j], ended)
			}
			continue
		}
		want := scalarLane(c, len(got[j])+1)
		if ended&bit == 0 {
			if len(want) > len(got[j]) {
				want = want[:len(got[j])]
			}
		}
		if !slices.Equal(got[j], want) {
			t.Fatalf("mask %08b lane %d (%+v): got %v, want %v (ended %v)",
				live, j, c, got[j], want, ended&bit != 0)
		}
	}
	return ls, got
}

// forEachLanePath runs f with the lane kernel on (where the machine has
// it) and on the pure-Go path.
func forEachLanePath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, asm := range []bool{true, false} {
		name := "go"
		if asm {
			name = "asm"
		}
		t.Run(name, func(t *testing.T) {
			was := SetGeoBlock8(asm)
			defer SetGeoBlock8(was)
			if asm && !LaneSlots8Enabled() {
				t.Skip("assembly lane kernel unavailable on this machine")
			}
			f(t)
		})
	}
}

// laneProbs spans dense schedules down to the 1e-300 sentinel regime.
var laneProbs = []float64{0.999999, 0.9, 0.5, 0.2, 0.05, 0.01, 1e-6, 1e-300}

// mixedLanes returns eight lanes with different probabilities, keys and
// phase shapes: long phases, phases shorter than a block, and origins
// near the phase's end.
func mixedLanes(seed uint64) [8]laneCase {
	shapes := [][2]int{{0, 1000}, {0, 5}, {995, 1000}, {0, 1 << 20}, {6, 7}, {0, 1}, {30, 40}, {0, 300}}
	var cs [8]laneCase
	for j := range cs {
		sh := shapes[(j+int(seed))%len(shapes)]
		cs[j] = laneCase{seed: seed*8 + uint64(j), p: laneProbs[(j+int(seed)*3)%len(laneProbs)], length: sh[1], pos: sh[0]}
	}
	return cs
}

// TestLaneSlotsMatchScalar pins Lanes to per-lane scalar draws on both
// paths: every live-lane mask 1–255 over mixed probabilities and phase
// shapes, then origins near the end of phases shorter than a block.
func TestLaneSlotsMatchScalar(t *testing.T) {
	forEachLanePath(t, func(t *testing.T) {
		for live := 1; live < 256; live++ {
			checkLanes(t, mixedLanes(uint64(live)), uint8(live), 64)
		}
		for length := 1; length < 8; length++ {
			for pos := 0; pos <= length; pos++ {
				var cs [8]laneCase
				for j := range cs {
					cs[j] = laneCase{seed: uint64(100*length + 10*pos + j), p: laneProbs[j], length: length, pos: pos}
				}
				checkLanes(t, cs, 0xff, 64)
			}
		}
	})
}

// TestLaneHandoffContinuesSchedule pins the straggler path: after a few
// lane draws, a lane handed off to a Stream continues through
// GeometricSlots with exactly the rest of its scalar schedule.
func TestLaneHandoffContinuesSchedule(t *testing.T) {
	forEachLanePath(t, func(t *testing.T) {
		for seed := uint64(0); seed < 32; seed++ {
			cs := mixedLanes(seed)
			ls, got := checkLanes(t, cs, 0xff, int(seed%4))
			for j, c := range cs {
				if ls.Live()&(1<<j) == 0 {
					continue
				}
				var st Stream
				pos := ls.Handoff(j, &st)
				buf := make([]int32, 32)
				for calls := 0; calls < 64; calls++ {
					n, done := st.GeometricSlots(c.lnQOrP(), pos, c.length, buf)
					got[j] = append(got[j], buf[:n]...)
					if done {
						break
					}
					pos = int(buf[n-1]) + 1
				}
				want := scalarLane(c, len(got[j]))
				if !slices.Equal(got[j], want) {
					t.Fatalf("seed %d lane %d handed off: got %v, want %v", seed, j, got[j], want)
				}
			}
			if ls.Live() != 0 {
				t.Fatalf("seed %d: lanes %08b still live after their handoff", seed, ls.Live())
			}
		}
	})
}

// FuzzLaneSlotsMatchScalar checks Lanes against per-lane scalar draws on
// both paths for fuzzed keys, live masks, probabilities (down to
// subnormal ones) and phase shapes.
func FuzzLaneSlotsMatchScalar(f *testing.F) {
	f.Add(uint64(1), uint8(0xff), uint64(0), uint32(1000), uint32(0))
	f.Add(uint64(7), uint8(0x81), uint64(1<<40), uint32(7), uint32(6))
	f.Add(uint64(9), uint8(0x3c), uint64(math.MaxUint64), uint32(1<<31-1), uint32(1<<31-9))
	f.Fuzz(func(t *testing.T, seed uint64, live uint8, spread uint64, length, pos uint32) {
		if live == 0 {
			return
		}
		sm := seed ^ spread
		var cs [8]laneCase
		for j := range cs {
			x := splitMix64(&sm)
			// A uniform mantissa scaled by 2^-e, e up to 1100: dense
			// schedules, sparse ones, and subnormal probabilities whose
			// 1/lnQ overflows.
			u := max(float64(x>>11)*0x1p-53, 0x1p-53)
			p := math.Ldexp(u, -int(splitMix64(&sm)%1100))
			l := int((uint64(length)+uint64(j)*uint64(spread>>32))%(1<<31-1)) + 1
			cs[j] = laneCase{seed: splitMix64(&sm), p: p, length: l, pos: int(uint64(pos)+uint64(j)) % (l + 1)}
			if p <= 0 || p >= 1 {
				return
			}
		}
		forEachLanePath(t, func(t *testing.T) { checkLanes(t, cs, live, 64) })
	})
}

// BenchmarkLaneDraw times one full Draw (eight lanes, laneBlock draws
// each) on phases too long to end: ns/op per 128 draws. Dividing it by
// two BenchmarkGeometricBlock8 calls (16 draws of one stream) gives the
// break-even occupancy behind the engine's laneMinLive.
func BenchmarkLaneDraw(b *testing.B) {
	var ls Lanes
	for b.Loop() {
		if ls.Live() != 0xff {
			for j := range 8 {
				ls.Start(j, New(uint64(j)), 0.05, math.MaxInt32)
			}
		}
		ls.Draw()
	}
}

// bitsLanes sets up ls as a Draw would leave it, for the bit-gather
// tests: lane j counts counts[j]%(laneBlock+1) slots spread over a
// phase of length bits of words (the last of them in lane 0, when it
// counts any), and its slots past the count are stale, pointing past
// the words or below zero.
func bitsLanes(ls *Lanes, seed uint64, counts [8]uint8, length int) {
	sm := seed
	for j := range 8 {
		n := int(counts[j]) % (laneBlock + 1)
		ls.st.n[j], ls.st.length[j] = n, length
		for i := range ls.slots[j] {
			x := splitMix64(&sm)
			if i < n {
				ls.slots[j][i] = int32(x % uint64(length))
			} else {
				ls.slots[j][i] = int32(x) | 1<<30
				if x&1 != 0 {
					ls.slots[j][i] = -ls.slots[j][i]
				}
			}
		}
	}
	if ls.st.n[0] > 0 {
		ls.slots[0][ls.st.n[0]-1] = int32(length - 1)
	}
}

// wantBits is the bit-gather by definition: one bit test per counted
// slot of every lane in the mask lanes, the other entries of out kept.
func wantBits(ls *Lanes, words []uint64, lanes uint8, out [8]uint16) [8]uint16 {
	for j := range out {
		if lanes&(1<<j) == 0 {
			continue
		}
		out[j] = 0
		for i, s := range ls.slots[j][:ls.st.n[j]] {
			if words[s/64]&(1<<(s%64)) != 0 {
				out[j] |= 1 << i
			}
		}
	}
	return out
}

// stale fills the out entries a gather must leave alone.
var stale = [8]uint16{0xdead, 0xbeef, 0xfeed, 0xface, 0xcafe, 0xf00d, 0xbead, 0xdeed}

// FuzzLaneBitsMatchGo checks Lanes.Bits, on the AVX-512 gather where the
// machine has it, against per-slot bit tests for fuzzed words, lane
// counts 0-16, phase lengths and lane masks, with stale slots past every
// lane's count pointing outside the words: they must not fault or set
// bits, and the lanes outside the mask must keep their entries.
func FuzzLaneBitsMatchGo(f *testing.F) {
	f.Add(uint64(1), uint64(0x0102030405060708), uint8(3), uint8(0), uint8(0xff))
	f.Add(uint64(7), uint64(0x1010101010101010), uint8(1), uint8(63), uint8(0x5a))
	f.Add(uint64(9), uint64(0), uint8(40), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed, counts uint64, nwords, short, lanes uint8) {
		was := SetGeoBlock8(true)
		defer SetGeoBlock8(was)
		words := make([]uint64, int(nwords)%48+1)
		sm := seed
		for w := range words {
			words[w] = splitMix64(&sm)
		}
		var cs [8]uint8
		for j := range cs {
			cs[j] = uint8(counts >> (8 * j))
		}
		var ls Lanes
		bitsLanes(&ls, seed, cs, 64*len(words)-int(short)%64)
		want := wantBits(&ls, words, lanes, stale)
		got, gotGo := stale, stale
		ls.Bits(words, lanes, &got)
		ls.bitsGo(words, lanes, &gotGo)
		if got != want || gotGo != want {
			t.Fatalf("counts %v lanes %08b: got %04x (Go path %04x), want %04x", ls.st.n, lanes, got, gotGo, want)
		}
	})
}

// BenchmarkLaneBits times one Bits call after a full Draw (eight lanes,
// laneBlock slots each): ns/op per 128 bit tests.
func BenchmarkLaneBits(b *testing.B) {
	var ls Lanes
	for j := range 8 {
		ls.Start(j, New(uint64(j)), 0.05, 1<<16)
	}
	ls.Draw()
	words := make([]uint64, 1<<10)
	var out [8]uint16
	for b.Loop() {
		ls.Bits(words, 0xff, &out)
	}
}
