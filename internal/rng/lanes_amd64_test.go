package rng

import (
	"math"
	"testing"
)

// nearIntegerLanes puts lane j's first quotient on (or a few ulp off)
// the integer m: lnQ is derived from the lane's own first uniform.
func nearIntegerLanes(j int, m float64, ulps int) [8]laneCase {
	cs := mixedLanes(uint64(j) + 7)
	c := &cs[j]
	c.pos, c.length = 0, 1<<20
	uj := New(c.seed).u53()
	c.lnQ = math.Log(uj) / m
	for ; ulps > 0; ulps-- {
		c.lnQ = math.Nextafter(c.lnQ, 0)
	}
	for ; ulps < 0; ulps++ {
		c.lnQ = math.Nextafter(c.lnQ, -1)
	}
	return cs
}

// TestLaneSlots8AsmNearIntegerQuotient drives the lane kernel's
// undecided path: with a near-integer quotient in any one lane the call
// must come back undecided with every lane untouched, and Draw must
// still match the scalar draws.
func TestLaneSlots8AsmNearIntegerQuotient(t *testing.T) {
	if !laneSlots8Supported {
		t.Skip("assembly lane kernel unavailable on this machine")
	}
	was := SetGeoBlock8(true)
	defer SetGeoBlock8(was)
	for j := range 8 {
		for _, m := range []float64{1, 2, 3, 7, 1000} {
			for ulps := -2; ulps <= 2; ulps++ {
				cs := nearIntegerLanes(j, m, ulps)
				for _, live := range []uint8{1 << j, 0xff} {
					var ls Lanes
					startLanes(&ls, &cs, live)
					before := ls.st
					if _, ok := laneSlots8Asm(&ls.st, &ls.slots, int(live)); ok || ls.st != before {
						t.Fatalf("lane %d m=%v ulps=%d mask %08b: the kernel decided a near-integer quotient",
							j, m, ulps, live)
					}
					checkLanes(t, cs, live, 64)
				}
			}
		}
	}
}

// TestLaneSlots8Asm is the lane kernel's self-check as a visible test:
// on machines with AVX-512 the kernel must have passed it at start-up,
// and it must decide far-past-the-phase sentinel lanes itself.
func TestLaneSlots8Asm(t *testing.T) {
	if !geoBlock8CPU() {
		t.Skip("no AVX-512 F/DQ/VL on this machine; lane draws take the Go path")
	}
	t.Log("AVX-512 F/DQ/VL present: testing the assembly lane kernel")
	if !laneSlots8Supported {
		t.Fatal("the lane kernel failed its start-up self-check; lane draws fell back to the Go path")
	}
	var cs [8]laneCase
	for j := range cs {
		cs[j] = laneCase{seed: uint64(j), p: 1e-300, length: 1 << 30}
	}
	var ls Lanes
	startLanes(&ls, &cs, 0xff)
	if _, ok := laneSlots8Asm(&ls.st, &ls.slots, 0xff); !ok {
		t.Fatal("the kernel handed back a call whose every lane is far past its phase")
	}
	for j := range cs {
		if ls.st.n[j] != 0 {
			t.Fatalf("lane %d: %d slots inside the phase with p=1e-300, want 0", j, ls.st.n[j])
		}
	}
}

// TestLaneBits8Asm pins the bit-gather against per-slot bit tests: random
// words, every lane count 0-16, a slot in the phase's last word, stale
// slots past each count that point outside the words (a gather that
// loaded them would fault), and every lane mask, whose other lanes keep
// their entries. A lane in the mask whose phase overruns the words is
// refused; one outside it is not read.
func TestLaneBits8Asm(t *testing.T) {
	if !geoBlock8CPU() {
		t.Skip("no AVX-512 F/DQ/VL on this machine; lane bit-gathers take the Go path")
	}
	t.Log("AVX-512 F/DQ/VL present: testing the assembly bit-gather")
	if !laneBits8Supported {
		t.Fatal("the bit-gather failed its start-up self-check; lane bit-gathers fell back to the Go path")
	}
	sm := uint64(0x5eed)
	for trial := range 512 {
		words := make([]uint64, trial%37+1)
		for w := range words {
			words[w] = splitMix64(&sm)
		}
		var counts [8]uint8
		for j := range counts {
			counts[j] = uint8(trial + 5*j)
		}
		var ls Lanes
		bitsLanes(&ls, uint64(trial), counts, 64*len(words)-trial%64)
		lanes := uint8(trial*37 + trial>>8)
		if trial%3 == 0 {
			lanes = 0xff
		}
		got := stale
		if !laneBits8Asm(&ls.st, &ls.slots, &words[0], 64*len(words), lanes, &got) {
			t.Fatalf("trial %d: the gather refused slots inside the words", trial)
		}
		if want := wantBits(&ls, words, lanes, stale); got != want {
			t.Fatalf("trial %d counts %v lanes %08b: got %04x, want %04x", trial, ls.st.n, lanes, got, want)
		}
	}
	var ls Lanes
	words := make([]uint64, 2)
	bitsLanes(&ls, 1, [8]uint8{0, 0, 0, 1}, 129)
	var got [8]uint16
	if laneBits8Asm(&ls.st, &ls.slots, &words[0], 128, 0xff, &got) {
		t.Fatal("the gather accepted a lane whose phase overruns the words")
	}
	if !laneBits8Asm(&ls.st, &ls.slots, &words[0], 128, 0xf7, &got) || got != ([8]uint16{}) {
		t.Fatalf("lane outside the mask: got ok=false or bits %04x", got)
	}
	ls.st.n[3] = 0
	if !laneBits8Asm(&ls.st, &ls.slots, &words[0], 128, 0xff, &got) || got != ([8]uint16{}) {
		t.Fatalf("lanes without slots: got ok=false or bits %04x", got)
	}
}
