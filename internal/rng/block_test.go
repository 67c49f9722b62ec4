package rng

import (
	"math"
	"slices"
	"testing"
)

// TestLogPortableMatchesMathLog pins the portable fdlibm kernel to
// math.Log bit for bit over the draw domain — the identity the whole
// block-draw design rests on. If this test fails on some platform, the
// init self-check must have routed block draws to math.Log already;
// assert that coupling too.
func TestLogPortableMatchesMathLog(t *testing.T) {
	sm := uint64(42)
	mismatches := 0
	for i := 0; i < 2_000_000; i++ {
		u := float64(splitMix64(&sm)>>11) * 0x1p-53
		if u == 0 {
			u = 0x1p-53
		}
		if got, want := logPortable(u), math.Log(u); got != want {
			mismatches++
			if useLogPortable {
				t.Fatalf("logPortable(%x) = %x, math.Log = %x, but useLogPortable is true",
					u, got, want)
			}
		}
	}
	if mismatches > 0 {
		t.Logf("portable log kernel differs from math.Log on this platform (%d/2M); block draws fall back", mismatches)
	}
	for _, u := range []float64{0x1p-53, 0x1p-52, 0.25, 0.5, math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), 0.75, 0.9999999999999999} {
		if got, want := logPortable(u), math.Log(u); got != want && useLogPortable {
			t.Fatalf("logPortable(%v) = %x, math.Log = %x", u, got, want)
		}
	}
}

// TestLog4PortableMatchesScalar pins the interleaved four-lane kernel
// to its scalar form lane for lane.
func TestLog4PortableMatchesScalar(t *testing.T) {
	sm := uint64(7)
	for i := 0; i < 100_000; i++ {
		var u [4]float64
		for j := range u {
			u[j] = float64(splitMix64(&sm)>>11) * 0x1p-53
			if u[j] == 0 {
				u[j] = 0x1p-53
			}
		}
		l0, l1, l2, l3 := log4Portable(u[0], u[1], u[2], u[3])
		for j, got := range []float64{l0, l1, l2, l3} {
			if want := logPortable(u[j]); got != want {
				t.Fatalf("lane %d: log4Portable(%x) = %x, logPortable = %x", j, u[j], got, want)
			}
		}
	}
}

// refSlots is GeometricSlots by its definition: scalar GeometricLnQ
// draws in blocks of eight (the last one shorter), placed by the
// SlotSchedule stopping rule, drawing no block after the one in which
// the schedule ends.
func refSlots(st *Stream, lnQ float64, pos, length, size int) (slots []int32, done bool) {
	for len(slots) < size && !done {
		var gs []int
		for d := min(8, size-len(slots)); d > 0; d-- {
			gs = append(gs, st.GeometricLnQ(lnQ))
		}
		for _, g := range gs {
			if g >= length-pos {
				done = true
				break
			}
			slots = append(slots, int32(pos+g))
			pos += g + 1
			if pos >= length {
				done = true
				break
			}
		}
	}
	return slots, done
}

// forEachPath runs f with the assembly kernel on (where the machine has
// it) and off.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, asm := range []bool{true, false} {
		name := "go"
		if asm {
			name = "asm"
		}
		t.Run(name, func(t *testing.T) {
			was := SetGeoBlock8(asm)
			defer SetGeoBlock8(was)
			if asm && !GeoBlock8Enabled() {
				t.Skip("assembly draw kernel unavailable on this machine")
			}
			f(t)
		})
	}
}

// checkSlots asserts one GeometricSlots call against refSlots: the
// slots, the done flag and the final stream state.
func checkSlots(t *testing.T, seed uint64, lnQ float64, pos, length, size int) {
	t.Helper()
	a, b := New(seed), New(seed)
	dst := make([]int32, size)
	n, done := a.GeometricSlots(lnQ, pos, length, dst)
	want, wantDone := refSlots(b, lnQ, pos, length, size)
	if !slices.Equal(dst[:n], want) || done != wantDone {
		t.Fatalf("seed %d lnQ %v pos %d length %d size %d: got %v done=%v, want %v done=%v",
			seed, lnQ, pos, length, size, dst[:n], done, want, wantDone)
	}
	if a.s != b.s {
		t.Fatalf("seed %d lnQ %v pos %d length %d size %d: stream states diverged", seed, lnQ, pos, length, size)
	}
}

// TestGeometricBlockMatchesScalar asserts the slot API is the scalar
// draw sequence placed by the SlotSchedule stopping rule — same slots,
// same end, same stream state afterwards — on both draw paths, for
// every tail length, probabilities from near-1 down to the MaxInt
// sentinel regime, and phase windows that end at every lane.
func TestGeometricBlockMatchesScalar(t *testing.T) {
	ps := []float64{0.999999, 0.9, 0.5, 0.3, 0.1, 0.01, 1e-4, 1e-9, 1e-18, 1e-300}
	rows := []struct {
		name        string
		pos, length int
	}{
		{"wide", 0, 1 << 30},
		{"mid-phase", 1000, 5000},
		{"pos=length-1", 99, 100},
		{"length<8", 0, 5},
		{"length=1", 0, 1},
		{"pos=length-8", 32, 40},
	}
	forEachPath(t, func(t *testing.T) {
		for _, row := range rows {
			for _, p := range ps {
				lnQ := math.Log1p(-p)
				for size := 1; size <= 8; size++ {
					for seed := uint64(0); seed < 16; seed++ {
						checkSlots(t, seed, lnQ, row.pos, row.length, size)
					}
				}
				for _, size := range []int{9, 16, 23, 32} {
					checkSlots(t, 7, lnQ, row.pos, row.length, size)
				}
			}
		}
	})
}

// TestGeometricSlotsEndLane places the lane that ends the schedule at
// every position of an 8-draw block, 0 through 7: the phase is cut
// right at the scalar schedule's (e+1)-th slot, and also one slot past
// it (the previous slot then lands on the phase's last slot).
func TestGeometricSlotsEndLane(t *testing.T) {
	lnQ := math.Log1p(-0.05)
	forEachPath(t, func(t *testing.T) {
		for seed := uint64(0); seed < 32; seed++ {
			full, _ := refSlots(New(seed), lnQ, 0, 1<<30, 8)
			for e := 0; e < 8; e++ {
				checkSlots(t, seed, lnQ, 0, int(full[e]), 8)
				if e > 0 {
					checkSlots(t, seed, lnQ, 0, int(full[e-1])+1, 8)
				}
			}
		}
	})
}

// TestGeometricBlockNeverSentinel exercises the MaxInt "never" sentinel
// through the slot API: with a p so small that ln(u)/lnQ overflows the
// int64 guard, lane 0 already ends the schedule, and the block is still
// drawn whole.
func TestGeometricBlockNeverSentinel(t *testing.T) {
	lnQ := math.Log1p(-5e-324) // smallest positive p: lnQ is -5e-324ish, ratios explode
	forEachPath(t, func(t *testing.T) {
		a, b := New(3), New(3)
		var dst [8]int32
		if n, done := a.GeometricSlots(lnQ, 0, 1<<30, dst[:]); n != 0 || !done {
			t.Fatalf("got %d slots, done=%v; want 0, true", n, done)
		}
		for i := 0; i < 8; i++ {
			if g := b.GeometricLnQ(lnQ); g != math.MaxInt {
				t.Fatalf("draw %d: expected the MaxInt sentinel, got %d", i, g)
			}
		}
		if a.s != b.s {
			t.Fatal("stream states diverged")
		}
	})
}

// TestSetGeoBlock8Differential pins the in-process kernel switch: it
// reports the forced-off state and restores the detected one cleanly.
func TestSetGeoBlock8Differential(t *testing.T) {
	was := SetGeoBlock8(false)
	defer SetGeoBlock8(was)
	if GeoBlock8Enabled() {
		t.Fatal("kernel reported enabled while force-disabled")
	}
	checkSlots(t, 99, math.Log1p(-0.3), 0, 1000, 24)
	if SetGeoBlock8(was) != false {
		t.Fatal("restore returned the wrong previous state")
	}
	if GeoBlock8Enabled() != was {
		t.Fatal("switch did not restore the detected state")
	}
}

func BenchmarkGeometricScalar(b *testing.B) {
	st := New(1)
	lnQ := math.Log1p(-0.05)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += st.GeometricLnQ(lnQ)
	}
	_ = sink
}

// BenchmarkGeometricBlock8 times one 8-draw GeometricSlots call (ns/op
// per block of eight) on a phase too long to end.
func BenchmarkGeometricBlock8(b *testing.B) {
	st := New(1)
	lnQ := math.Log1p(-0.05)
	var buf [8]int32
	for b.Loop() {
		st.GeometricSlots(lnQ, 0, math.MaxInt32, buf[:])
	}
}
