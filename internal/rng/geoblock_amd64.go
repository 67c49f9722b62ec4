package rng

import (
	"math"
	"os"
	"slices"
)

// This file gates the assembly draw kernel (geoblock_amd64.s): up to
// eight complete geometric draws per call — the xoshiro steps, the
// 53-bit uniform conversion, a table-driven log evaluated eight lanes
// wide in one AVX-512 chain, the quotient by lnQ — handed back as the
// action slots they place. The kernel's log is not bit-identical to
// math.Log; it decides a lane only where a few-ulp error cannot move
// the floor and hands every other call back to the exact Go path (see
// the assembly's header). Both the error budget and
// the resulting slots are checked at start-up: useGeoBlock8 requires
// geoBlock8SelfCheck, and every block draw takes the four-lane Go path
// wherever it fails.

// geoSlots8Asm draws k (1..8) geometric skips from the stream state s
// with 1/lnQ = invLnQ, advancing s exactly k xoshiro steps, and places
// them as the action slots of a schedule at pos over [0, length): the
// first slot is pos plus the first skip, each next one follows the
// previous plus one plus its skip. It stores the slots inside the phase
// at dst[0..n) and returns n, the number of lanes inside, and next,
// one past the last of them (meaningless when n is 0). When some
// lane's slot cannot be decided without the exact log and the scalar
// division it returns n = -1 instead and leaves s untouched. Only
// valid when useGeoBlock8 is true.
//
//go:noescape
func geoSlots8Asm(s *[4]uint64, dst *int32, k, pos, length int, invLnQ float64) (n, next int)

// laneSlots8Asm is Lanes.Draw's kernel: one block of k draws for each
// lane in the live mask, k set by Draw's rule from the live lanes' p,
// pos and length, every lane placed from its own pos over its own
// [0, length) exactly as geoSlots8Asm places one stream's. It writes
// lane j's slots to dst[j] and their count inside the phase to ls.n[j],
// advances each live lane's stream k steps and its pos past its k-th
// slot (meaningful only while the lane's slots are all inside), leaves
// the other lanes' state as it was, and returns the live lanes whose
// schedule ended by GeometricSlots's rule (their stream state is then
// of no further use). When some live lane's slot cannot be decided
// without the exact log it returns ok = false, leaving ls untouched and
// dst unspecified. Only valid when useLaneSlots8 is true.
//
//go:noescape
func laneSlots8Asm(ls *laneState, dst *[8][laneBlock]int32, live int) (ended uint8, ok bool)

// laneBits8Asm is Lanes.Bits's kernel: for each lane j, bit i of out[j]
// is bit slots[j][i] of the bit string at words (bit s in word s>>6 at
// position s&63), for i below the lane's count ls.n[j]; higher bits are
// zero. Slots past a lane's count are never read as indices, so they
// may point anywhere. It returns ok = false, writing nothing, when some
// lane with a nonzero count has a phase longer than limit, the bits the
// words hold. Only valid when useLaneBits8 is true.
//
//go:noescape
func laneBits8Asm(ls *laneState, slots *[8][laneBlock]int32, words *uint64, limit int, out *[8]uint16) (ok bool)

// log8Asm evaluates the kernel's log on eight uniforms, each at least
// 2^-53: the log the kernels take of a draw x, u = x·2^-53.
//
//go:noescape
func log8Asm(u, l *[8]float64)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)

// geoBlock8Supported is true when the CPU and OS support AVX-512 F, DQ
// and VL and the assembly kernel passes its self-check.
var geoBlock8Supported = geoBlock8CPU() && geoBlock8SelfCheck()

// laneSlots8Supported is true when the single-stream kernel is and the
// lane kernel passes its own self-check.
var laneSlots8Supported = geoBlock8Supported && laneSlots8SelfCheck()

// laneBits8Supported is true when the CPU and OS support AVX-512 F, DQ
// and VL and the bit-gather passes its self-check.
var laneBits8Supported = geoBlock8CPU() && laneBits8SelfCheck()

// useGeoBlock8 routes GeometricSlots through the assembly kernel,
// useLaneSlots8 routes Lanes.Draw through the lane kernel and
// useLaneBits8 routes Lanes.Bits through the bit-gather. All three start
// from the hardware detection, minus the environment kill switch:
// RCBCAST_NO_GEOBLOCK8 (any non-empty value) forces the pure-Go paths
// even where the kernels work, so CI can exercise the fallbacks'
// byte-identity on kernel hosts instead of only on machines that happen
// to lack them. Every path returns the same slots and bits, so the
// switch is always safe.
var (
	noGeoBlock8   = os.Getenv("RCBCAST_NO_GEOBLOCK8") != ""
	useGeoBlock8  = !noGeoBlock8 && geoBlock8Supported
	useLaneSlots8 = !noGeoBlock8 && laneSlots8Supported
	useLaneBits8  = !noGeoBlock8 && laneBits8Supported
)

// GeoBlock8Enabled reports whether block draws currently route through
// the assembly kernel.
func GeoBlock8Enabled() bool { return useGeoBlock8 }

// LaneSlots8Enabled reports whether lane draws currently route through
// the assembly lane kernel.
func LaneSlots8Enabled() bool { return useLaneSlots8 }

// LaneBits8Enabled reports whether lane bit-gathers currently route
// through the assembly kernel.
func LaneBits8Enabled() bool { return useLaneBits8 }

// SetGeoBlock8 enables or disables the assembly kernels in-process,
// returning the previous state of the single-stream one. Enabling is
// clamped to hardware support and the self-checks. Draws are
// bit-identical either way — the switch exists so differential tests
// can cover the pure-Go paths on one host — but it is not synchronized:
// flip it only while no other goroutine draws.
func SetGeoBlock8(enabled bool) (prev bool) {
	prev = useGeoBlock8
	useGeoBlock8 = enabled && geoBlock8Supported
	useLaneSlots8 = enabled && laneSlots8Supported
	useLaneBits8 = enabled && laneBits8Supported
	return prev
}

// geoBlock8CPU reports whether the CPU and OS support the kernel's
// instructions.
func geoBlock8CPU() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	if ecx1&osxsaveBit == 0 {
		return false
	}
	// XMM, YMM, opmask, ZMM0-15 upper halves and ZMM16-31 OS-enabled.
	if lo, _ := xgetbv0(); lo&0xE6 != 0xE6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const need = 1<<16 | 1<<17 | 1<<31 // AVX512F, AVX512DQ, AVX512VL
	return ebx7&need == need
}

// logBudget bounds the kernel log's relative error against math.Log
// (2^-50: four ulp at the bottom of a binade, eight at the top); the
// table-driven log measured within 2^-52, a quarter of it. With the
// reciprocal's and the fused multiply-add's roundings the kernel's
// quotient plus one then stays within ~1.4e-15 of the scalar one's,
// ~70× inside the assembly's margin.
const logBudget = 0x1p-50

// geoBlock8SelfCheck verifies the kernel's two premises before it is
// ever used. First, its log stays within logBudget of math.Log over a
// spread of uniforms, including the smallest and the largest ones, both
// sides of the reduction's split at 3/4 and of the c = 1 interval's
// lower edge at 31/32. Second, for every tail length k from 1 to 8,
// over a spread of stream states, skip distributions (dense schedules
// down to quotients in the MaxInt sentinel regime) and phase windows,
// its slots and final stream state are bit-identical to k scalar
// draws placed by the SlotSchedule stopping rule.
func geoBlock8SelfCheck() bool {
	sm := uint64(0xc0ffee5eed5a11ad)
	us := []float64{0x1p-53, 0x1p-52, 0.25, 0.5, 0.375, math.Nextafter(0.375, 0),
		0.75, math.Nextafter(0.75, 0), 31.0 / 32, math.Nextafter(31.0/32, 0),
		1 - 0x1p-52, 1 - 0x1p-53, 1 - 3*0x1p-53}
	for len(us) < 4096 {
		us = append(us, max(float64(splitMix64(&sm)>>11)*0x1p-53, 0x1p-53))
	}
	var l [8]float64
	for i := 0; i < len(us); i += 8 {
		u := (*[8]float64)(us[i:])
		log8Asm(u, &l)
		for j, x := range u {
			want := math.Log(x)
			if !(math.Abs(l[j]-want) <= logBudget*math.Abs(want)) {
				return false
			}
		}
	}
	ps := []float64{0.999999, 0.9, 0.5, 0.2, 0.01, 1e-6, 1e-12, 1e-18, 1e-300}
	windows := [][2]int{{0, 1 << 30}, {0, 40}, {17, 18}, {5, 9}}
	var got, want [8]int32
	for trial := 0; trial < 64; trial++ {
		for _, p := range ps {
			lnQ := math.Log1p(-p)
			state := [4]uint64{splitMix64(&sm), splitMix64(&sm), splitMix64(&sm), splitMix64(&sm)}
			// gs[d] and after[d+1]: the scalar draw d and the state after it.
			ref := Stream{s: state, init: true}
			var gs [8]int
			var after [9][4]uint64
			after[0] = state
			for d := range gs {
				gs[d] = ref.GeometricLnQ(lnQ)
				after[d+1] = ref.s
			}
			for k := 1; k <= 8; k++ {
				for _, w := range windows {
					wn, wnext := placeSlots(gs[:k], w[0], w[1], want[:k])
					asmState := state
					n, next := geoSlots8Asm(&asmState, &got[0], k, w[0], w[1], 1/lnQ)
					if n < 0 {
						// Undecided: handed back untouched.
						if asmState != state {
							return false
						}
						continue
					}
					if asmState != after[k] || n != wn || !slices.Equal(got[:n], want[:n]) || n > 0 && next != wnext {
						return false
					}
				}
			}
		}
	}
	return true
}

// laneSlots8SelfCheck verifies the lane kernel against the pure-Go path
// (itself pinned to per-lane scalar draws by the tests) before it is
// ever used: over a spread of stream states, per-lane probabilities
// (dense schedules down to the 1e-300 sentinel regime), phase windows
// (short phases and origins near their end), live masks and block
// lengths, a decided call must end the same lanes, place every live
// lane's slots exactly as the Go path does, leave the stream and pos of
// every live lane that has not ended exactly the Go path's, and leave
// every other lane untouched; an undecided call must leave the lanes
// untouched.
func laneSlots8SelfCheck() bool {
	sm := uint64(0x1a4e5eedc0ffee77)
	ps := []float64{0.999999, 0.9, 0.5, 0.2, 0.01, 1e-6, 1e-12, 1e-300}
	windows := [][2]int{{0, 1 << 30}, {0, 40}, {17, 18}, {5, 9}, {0, 3}, {1000, 1003}}
	var asm, ref Lanes
	var st Stream
	for trial := 0; trial < 96; trial++ {
		live := uint8(splitMix64(&sm))
		if trial < 8 {
			live = 1 << trial
		} else if live == 0 {
			live = 0xff
		}
		asm = Lanes{}
		for j := range 8 {
			st.reseed(splitMix64(&sm))
			w := windows[(trial+j)%len(windows)]
			asm.Start(j, &st, ps[(trial*3+j)%len(ps)], w[1])
			asm.st.pos[j] = w[0]
		}
		asm.live = live
		ref = asm
		before := asm.st
		ended, ok := laneSlots8Asm(&asm.st, &asm.slots, int(live))
		if !ok {
			if asm.st != before {
				return false
			}
			continue
		}
		if ended != ref.drawGo() {
			return false
		}
		for j := range 8 {
			if live&(1<<j) == 0 {
				if asm.st.n[j] != 0 || asm.st.pos[j] != before.pos[j] ||
					asm.st.s[0][j] != before.s[0][j] || asm.st.s[3][j] != before.s[3][j] {
					return false
				}
				continue
			}
			n := ref.st.n[j]
			if asm.st.n[j] != n || !slices.Equal(asm.slots[j][:n], ref.slots[j][:n]) {
				return false
			}
			if ended&(1<<j) != 0 {
				continue
			}
			for w := range 4 {
				if asm.st.s[w][j] != ref.st.s[w][j] {
					return false
				}
			}
			if asm.st.pos[j] != ref.st.pos[j] {
				return false
			}
		}
	}
	return true
}

// laneBits8SelfCheck verifies the bit-gather against the Go path before
// it is ever used: over random words (including all-ones and all-zero
// ones), every lane count 0-16 and slots spread over the whole phase
// and its last word, the masks must be bit-identical. Slots past a
// lane's count point at set bits inside the words, so a gather that
// read them would set bits the Go path does not (an out-of-range stale
// slot would fault here instead; the tests cover those).
func laneBits8SelfCheck() bool {
	sm := uint64(0xb175eedfeed5a11d)
	var words [9]uint64
	var ls Lanes
	for trial := 0; trial < 64; trial++ {
		for w := range words {
			switch trial % 8 {
			case 0:
				words[w] = ^uint64(0)
			case 1:
				words[w] = 0
			default:
				words[w] = splitMix64(&sm)
			}
		}
		length := len(words)*64 - int(splitMix64(&sm)%64)
		for j := range 8 {
			n := (trial + 3*j) % (laneBlock + 1)
			ls.st.n[j], ls.st.length[j] = n, length
			for i := range ls.slots[j] {
				ls.slots[j][i] = int32(splitMix64(&sm) % uint64(length))
			}
			if j == trial%8 {
				ls.slots[j][0] = int32(length - 1)
			}
			for i := n; i < laneBlock; i++ {
				ls.slots[j][i] = int32(trial % 64) // bit set in words[0] of all-ones trials
			}
		}
		var got, want [8]uint16
		if !laneBits8Asm(&ls.st, &ls.slots, &words[0], len(words)*64, &got) {
			return false
		}
		ls.bitsGo(words[:], &want)
		if got != want {
			return false
		}
	}
	return true
}
