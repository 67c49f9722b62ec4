package rng

import (
	"math"
	"os"
	"slices"
)

// This file gates the assembly draw kernel (geoblock_amd64.s): up to
// eight complete geometric draws per call — the xoshiro steps, the
// 53-bit uniform conversion, the fdlibm log evaluated eight lanes wide
// in one AVX-512 chain, the quotient by lnQ — handed back as the action
// slots they place. The kernel's log fuses multiply-adds, so it is not
// bit-identical to math.Log; it decides a lane only where a few-ulp
// error cannot move the floor and hands every other call back to the
// exact Go path (see the assembly's header). Both the error budget and
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

// log8Asm evaluates the kernel's log on eight uniforms.
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

// useGeoBlock8 routes GeometricSlots through the assembly kernel. It
// starts from the hardware detection, minus the environment kill
// switch: RCBCAST_NO_GEOBLOCK8 (any non-empty value) forces the
// pure-Go four-lane path even where the kernel works, so CI can
// exercise the fallback's byte-identity on kernel hosts instead of
// only on machines that happen to lack it. Both paths place the same
// slots, so the switch is always safe.
var useGeoBlock8 = os.Getenv("RCBCAST_NO_GEOBLOCK8") == "" && geoBlock8Supported

// GeoBlock8Enabled reports whether block draws currently route through
// the assembly kernel.
func GeoBlock8Enabled() bool { return useGeoBlock8 }

// SetGeoBlock8 enables or disables the assembly kernel in-process,
// returning the previous state. Enabling is clamped to hardware
// support. Draws are bit-identical either way — the switch exists so
// differential tests can cover the pure-Go path on one host — but it is
// not synchronized: flip it only while no other goroutine draws.
func SetGeoBlock8(enabled bool) (prev bool) {
	prev = useGeoBlock8
	useGeoBlock8 = enabled && geoBlock8Supported
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
// (2^-50, four ulp at the top of a binade). With the reciprocal's and
// the product's roundings the kernel's quotient then stays within
// ~1.4e-15 of the scalar one, ~70× inside the assembly's margin.
const logBudget = 0x1p-50

// geoBlock8SelfCheck verifies the kernel's two premises before it is
// ever used. First, its log stays within logBudget of math.Log over a
// spread of uniforms, including the smallest one and the √2/2
// adjustment boundary. Second, for every tail length k from 1 to 8,
// over a spread of stream states, skip distributions (dense schedules
// down to quotients in the MaxInt sentinel regime) and phase windows,
// its slots and final stream state are bit-identical to k scalar
// draws placed by the SlotSchedule stopping rule.
func geoBlock8SelfCheck() bool {
	sm := uint64(0xc0ffee5eed5a11ad)
	us := []float64{0x1p-53, 0x1p-52, 0.25, 0.5, math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0),
		0.75, 1 - 0x1p-52, 1 - 0x1p-53, 1 - 3*0x1p-53}
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
