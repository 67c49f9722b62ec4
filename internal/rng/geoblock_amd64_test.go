package rng

import (
	"math"
	"testing"
)

// TestGeoBlock8Asm is the self-check as a visible test: on machines
// with AVX-512 the kernel must have passed it at start-up (its log
// within the error budget, its slots bit-for-bit the scalar draws'
// for every tail length, from dense schedules to the MaxInt sentinel
// regime), and it must decide far-past-the-phase lanes itself. Run
// with -v, its output names the draw path this machine covered.
func TestGeoBlock8Asm(t *testing.T) {
	if !geoBlock8CPU() {
		t.Skip("no AVX-512 F/DQ/VL on this machine; block draws take the Go path")
	}
	t.Log("AVX-512 F/DQ/VL present: testing the assembly draw kernel")
	if !geoBlock8Supported {
		t.Fatal("the kernel failed its start-up self-check; block draws fell back to the Go path")
	}
	// Direct spot check with sentinel-heavy lnQ: every lane is far past
	// the phase, so the kernel decides all of them through its clamp.
	lnQ := math.Log1p(-1e-300)
	for k := 1; k <= 8; k++ {
		st, ref := New(42), New(42)
		var dst [8]int32
		if n, _ := geoSlots8Asm(&st.s, &dst[0], k, 0, 1<<30, 1/lnQ); n != 0 {
			t.Fatalf("k=%d: %d lanes inside the phase with p=1e-300, want 0", k, n)
		}
		for d := 0; d < k; d++ {
			if g := ref.GeometricLnQ(lnQ); g != math.MaxInt {
				t.Fatalf("k=%d draw %d: want the MaxInt sentinel, got %d", k, d, g)
			}
		}
		if st.s != ref.s {
			t.Fatalf("k=%d: stream stepped differently from %d scalar draws", k, k)
		}
	}
}

// TestGeoBlock8AsmExactIntegerQuotient drives the kernel's undecided
// path deliberately: lnQ is derived from lane j's own log, for j the
// first and the last lane of every tail length, so that its quotient
// sits on (or a few ulp from) an integer. The kernel's estimate cannot
// decide such a lane, so it must hand the call back (-1), and the
// slots must still match the scalar draws.
func TestGeoBlock8AsmExactIntegerQuotient(t *testing.T) {
	if !geoBlock8Supported {
		t.Skip("assembly draw kernel unavailable on this machine")
	}
	was := SetGeoBlock8(true)
	defer SetGeoBlock8(was)
	for k := 1; k <= 8; k++ {
		for _, j := range []int{0, k - 1} {
			probe := New(1234)
			var uj float64
			for d := 0; d <= j; d++ {
				uj = probe.u53()
			}
			for _, m := range []float64{1, 2, 3, 7, 1000} {
				base := math.Log(uj) / m // q for lane j ≈ m
				lnQs := []float64{base,
					math.Nextafter(base, 0), math.Nextafter(math.Nextafter(base, 0), 0),
					math.Nextafter(base, -1), math.Nextafter(math.Nextafter(base, -1), -1)}
				for _, lnQ := range lnQs {
					st := New(1234)
					before := st.s
					var dst [8]int32
					if n, _ := geoSlots8Asm(&st.s, &dst[0], k, 0, 1<<30, 1/lnQ); n != -1 || st.s != before {
						t.Fatalf("k=%d lane %d m=%v lnQ=%x: kernel decided %d lanes; a near-integer quotient must be handed back untouched",
							k, j, m, lnQ, n)
					}
					checkSlots(t, 1234, lnQ, 0, 1<<30, k)
				}
			}
		}
	}
}

// checkLog8 runs the kernel's log over us, eight at a time, and fails
// on any uniform whose log strays further than logBudget from math.Log.
func checkLog8(t *testing.T, us []float64) {
	t.Helper()
	var u, l [8]float64
	for i := 0; i < len(us); i += 8 {
		for j := range u {
			u[j] = us[min(i+j, len(us)-1)]
		}
		log8Asm(&u, &l)
		for j, x := range u {
			if want := math.Log(x); !(math.Abs(l[j]-want) <= logBudget*math.Abs(want)) {
				t.Fatalf("log(%v) = %v on the kernel, %v in math.Log: relative error %g over the budget %g",
					x, l[j], want, math.Abs(l[j]-want)/math.Abs(want), logBudget)
			}
		}
	}
}

// TestLog8TableEdges pins the kernel's log at the edges of its table:
// in every binade the uniforms reach, each interval edge of the
// reduced mantissa z (1 + i/16 on [1, 3/2], 3/4 + i/32 on [3/4, 1],
// which includes both sides of the reduction's split at z = 3/2 → 3/4
// and of the c = 1 interval's edges at 31/32 and 1), with both of its
// neighbours in the draws' 2^-53 grid and both of its neighbouring
// doubles, plus the smallest and largest uniforms.
func TestLog8TableEdges(t *testing.T) {
	if !geoBlock8CPU() {
		t.Skip("no AVX-512 F/DQ/VL on this machine; the kernel's log is never used")
	}
	var zs []float64
	for i := 0; i <= 8; i++ {
		zs = append(zs, 1+float64(i)/16, 0.75+float64(i)/32)
	}
	us := []float64{0x1p-53, 2 * 0x1p-53, 1 - 0x1p-53, 1 - 2*0x1p-53}
	for k := -54; k <= 0; k++ {
		for _, z := range zs {
			e := math.Ldexp(z, k)
			for _, u := range []float64{e, e - 0x1p-53, e + 0x1p-53, math.Nextafter(e, 0), math.Nextafter(e, 1)} {
				if u >= 0x1p-53 && u < 1 {
					us = append(us, u)
				}
			}
		}
	}
	checkLog8(t, us)
}

// FuzzLog8WithinBudget checks the kernel's log against math.Log on
// fuzzed 53-bit uniforms: eight per input, derived from the seed, each
// with its draw shifted right by up to 52 bits so that the smallest
// binades, which random draws almost never reach, are covered too.
func FuzzLog8WithinBudget(f *testing.F) {
	if !geoBlock8CPU() {
		f.Skip("no AVX-512 F/DQ/VL on this machine; the kernel's log is never used")
	}
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(0x9e3779b97f4a7c15), uint8(52))
	f.Add(uint64(0), uint8(11))
	f.Fuzz(func(t *testing.T, seed uint64, shift uint8) {
		sm := seed
		us := make([]float64, 8)
		for j := range us {
			raw := splitMix64(&sm) >> 11 >> ((uint(shift) + uint(j)) % 53)
			us[j] = float64(max(raw, 1)) * 0x1p-53
		}
		checkLog8(t, us)
	})
}
