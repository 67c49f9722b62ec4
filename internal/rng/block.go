package rng

import (
	"fmt"
	"math"
	"os"
)

// This file is the draw-throughput side of the batched engine kernel.
//
// Engine profiles put the geometric skip draw — one uniform, one
// natural log, one division, one floor — at roughly two thirds of a
// whole protocol run, with math.Log alone above a quarter. The draws of
// one schedule are serial in the scalar engine: each skip is consumed
// before the next is drawn, so the log's ~dozen-cycle dependency chain
// and the division's latency are paid in full per event. A schedule's
// stream is private and re-keyed (Reseed) before every use, though, so
// drawing *ahead* is free: GeometricSlots prefetches a block of draws
// and evaluates their logs several lanes at a time, letting the
// out-of-order core overlap what the scalar loop serializes. On the Go
// path each draw performs exactly the float64 operations of
// GeometricLnQ; the assembly kernel (geoblock_amd64.s) decides a lane
// only where its own log cannot move the floor. Either way the slots
// are bit-for-bit those of the scalar draws (pinned by
// TestGeometricBlockMatchesScalar).

// Coefficients of the fdlibm natural-log kernel, identical to the ones
// the standard library evaluates (math/log.go and the amd64 assembly
// implement the same operation sequence).
const (
	ln2Hi = 6.93147180369123816490e-01 /* 3fe62e42 fee00000 */
	ln2Lo = 1.90821492927058770002e-10 /* 3dea39ef 35793c76 */
	logL1 = 6.666666666666735130e-01   /* 3FE55555 55555593 */
	logL2 = 3.999999999940941908e-01   /* 3FD99999 9997FA04 */
	logL3 = 2.857142874366239149e-01   /* 3FD24924 94229359 */
	logL4 = 2.222219843214978396e-01   /* 3FCC71C5 1D8E78AF */
	logL5 = 1.818357216161805012e-01   /* 3FC74664 96CB03DE */
	logL6 = 1.531383769920937332e-01   /* 3FC39A09 D078C69F */
	logL7 = 1.479819860511658591e-01   /* 3FC2F112 DF3E5244 */
)

// logPortable evaluates the fdlibm natural log for a positive, finite,
// normal argument — the entire domain the uniform draws inhabit
// ([2⁻⁵³, 1)). The operation sequence matches the standard library's,
// so on targets whose math.Log performs plain (unfused) IEEE arithmetic
// the results are bit-identical; useLogPortable verifies exactly that
// at init and routes the block draw through math.Log wherever it does
// not hold.
func logPortable(x float64) float64 {
	f1, ki := math.Frexp(x)
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	f := f1 - 1
	k := float64(ki)
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := s2 * (logL1 + s4*(logL3+s4*(logL5+s4*logL7)))
	t2 := s4 * (logL2 + s4*(logL4+s4*logL6))
	R := t1 + t2
	hfsq := 0.5 * f * f
	return k*ln2Hi - ((hfsq - (s*(hfsq+R) + k*ln2Lo)) - f)
}

// sqrt2over2Mant is the mantissa field of √2/2 (bits
// 0x3FE6A09E667F3BCD): with the exponent pinned to the Frexp range
// [0.5, 1), comparing mantissas IS comparing values, which turns the
// kernel's "below √2/2" adjustment into integer arithmetic.
const sqrt2over2Mant = 0x3FE6A09E667F3BCD & (1<<52 - 1)

// reduce performs Frexp plus the fdlibm √2/2 adjustment for a positive
// normal argument, branch-free: the adjustment predicate becomes a
// 0-or-1 word steering the constructed exponent, because a ~50/50
// data-dependent branch per lane (what the naive translation compiles
// to) costs more in mispredictions than the whole polynomial. The
// (f, k) pair produced is bit-identical to the branchy reduction:
// exponent surgery on the bits is the exact *2, and k is exact integer
// arithmetic.
func reduce(x float64) (f float64, k float64) {
	b := math.Float64bits(x)
	m := b & (1<<52 - 1)
	lt := (m - sqrt2over2Mant) >> 63 // 1 when mantissa < √2/2's, else 0
	f = math.Float64frombits((0x3FE+lt)<<52|m) - 1
	k = float64(int(b>>52) - 1022 - int(lt))
	return f, k
}

// log4Portable evaluates logPortable on four independent arguments with
// the lanes interleaved, exposing the instruction-level parallelism the
// serial draw loop cannot: four polynomial chains and four divisions in
// flight at once instead of one.
func log4Portable(x0, x1, x2, x3 float64) (l0, l1, l2, l3 float64) {
	f0, kf0 := reduce(x0)
	f1, kf1 := reduce(x1)
	f2, kf2 := reduce(x2)
	f3, kf3 := reduce(x3)
	s0 := f0 / (2 + f0)
	s1 := f1 / (2 + f1)
	s2v := f2 / (2 + f2)
	s3 := f3 / (2 + f3)
	s20, s21, s22, s23 := s0*s0, s1*s1, s2v*s2v, s3*s3
	s40, s41, s42, s43 := s20*s20, s21*s21, s22*s22, s23*s23
	t10 := s20 * (logL1 + s40*(logL3+s40*(logL5+s40*logL7)))
	t11 := s21 * (logL1 + s41*(logL3+s41*(logL5+s41*logL7)))
	t12 := s22 * (logL1 + s42*(logL3+s42*(logL5+s42*logL7)))
	t13 := s23 * (logL1 + s43*(logL3+s43*(logL5+s43*logL7)))
	t20 := s40 * (logL2 + s40*(logL4+s40*logL6))
	t21 := s41 * (logL2 + s41*(logL4+s41*logL6))
	t22 := s42 * (logL2 + s42*(logL4+s42*logL6))
	t23 := s43 * (logL2 + s43*(logL4+s43*logL6))
	R0, R1, R2, R3 := t10+t20, t11+t21, t12+t22, t13+t23
	h0, h1, h2, h3 := 0.5*f0*f0, 0.5*f1*f1, 0.5*f2*f2, 0.5*f3*f3
	l0 = kf0*ln2Hi - ((h0 - (s0*(h0+R0) + kf0*ln2Lo)) - f0)
	l1 = kf1*ln2Hi - ((h1 - (s1*(h1+R1) + kf1*ln2Lo)) - f1)
	l2 = kf2*ln2Hi - ((h2 - (s2v*(h2+R2) + kf2*ln2Lo)) - f2)
	l3 = kf3*ln2Hi - ((h3 - (s3*(h3+R3) + kf3*ln2Lo)) - f3)
	return
}

// useLogPortable gates the portable log kernel on a start-up
// self-check: a few thousand uniforms from the draw domain must agree
// bit-for-bit with math.Log. On targets where the check fails (say, a
// compiler that contracts the kernel's multiply-adds differently than
// it does the standard library's), block draws fall back to math.Log —
// slower, but identity with the scalar oracle is never at risk.
var useLogPortable = func() bool {
	sm := uint64(0x0ddc0ffeebadf00d)
	for i := 0; i < 4096; i++ {
		u := float64(splitMix64(&sm)>>11) * 0x1p-53
		if u == 0 {
			u = 0x1p-53
		}
		if logPortable(u) != math.Log(u) {
			return false
		}
	}
	// Cover the smallest uniform (the u == 0 nudge) and the Frexp
	// adjustment boundary explicitly.
	for _, u := range []float64{0x1p-53, 0.5, math.Sqrt2 / 2, 0.9999999999999999} {
		if logPortable(u) != math.Log(u) {
			return false
		}
	}
	return true
}()

// u53 draws the next uniform exactly as GeometricLnQ does: the open-coded
// xoshiro step, the 53-bit conversion, and the zero nudge.
func (st *Stream) u53() float64 {
	s := &st.s
	raw := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	u := float64(raw>>11) * 0x1p-53
	if u == 0 {
		u = 0x1p-53
	}
	return u
}

// geoFromLog finishes one geometric draw from its log value. The
// quotient is non-negative (both ln u and lnQ are negative), so integer
// truncation IS the scalar path's Floor, and the sentinel comparison
// commutes with Floor for an integral bound — the results are
// bit-identical to GeometricLnQ's Floor-then-convert with one float op
// and a branchy call fewer per draw.
func geoFromLog(l, lnQ float64) int {
	q := l / lnQ
	if q >= float64(math.MaxInt64/2) || math.IsNaN(q) {
		return math.MaxInt
	}
	return int(q)
}

// placeSlots places the skips gs as a SlotSchedule from pos over
// [0, length): each skip's slot is pos plus the skip, and pos moves one
// past it. It writes the slots to dst and returns how many fall inside
// the phase, stopping at the first that does not (a skip that reaches
// length, or any skip once pos has reached it), and the pos it ends at.
func placeSlots(gs []int, pos, length int, dst []int32) (n, next int) {
	for i, g := range gs {
		if g >= length-pos { // also covers the MaxInt "never" sentinel
			return i, pos
		}
		pos += g
		dst[i] = int32(pos)
		pos++
	}
	return len(gs), pos
}

// GeometricSlots draws geometric skips with lnQ = Log1p(-p) and places
// them as the action slots of a schedule at pos over [0, length),
// exactly as a SlotSchedule over the same stream would place its next
// slots. It fills dst until it is full or the schedule ends, and
// returns the slots written and whether the schedule ended: a skip
// reached past the phase or a slot landed on its last one. It requires
// 0 < p < 1 (lnQ < 0), 0 <= pos < length and length <= MaxInt32.
//
// Skips are drawn in blocks of eight (the last one may be shorter); the
// block in which the schedule ends is drawn whole and none after it, so
// the stream is left ahead of the scalar schedule's. That is safe only
// where the stream is re-keyed before its next use.
func (st *Stream) GeometricSlots(lnQ float64, pos, length int, dst []int32) (n int, done bool) {
	st.ensure()
	var invLnQ float64
	if useGeoBlock8 {
		invLnQ = 1 / lnQ
	}
	for n < len(dst) {
		blk := dst[n:min(n+8, len(dst))]
		got, next := -1, 0
		if useGeoBlock8 {
			got, next = geoSlots8Asm(&st.s, &blk[0], len(blk), pos, length, invLnQ)
		}
		if got < 0 {
			got, next = st.slots8Go(lnQ, pos, length, blk)
		}
		n += got
		if got < len(blk) {
			return n, true
		}
		pos = next
		if pos >= length {
			return n, true
		}
	}
	return n, false
}

// slots8Go is the pure-Go block of GeometricSlots, and the exact redo
// of a block the assembly kernel hands back: the skips are drawn four
// lanes at a time through the interleaved log kernel, the remainder
// through the scalar draw, and placed by placeSlots.
func (st *Stream) slots8Go(lnQ float64, pos, length int, dst []int32) (n, next int) {
	var gs [8]int
	k := len(dst)
	i := 0
	for ; i+4 <= k; i += 4 {
		// The uniforms are drawn serially (the xoshiro state is a
		// dependency chain) but cheaply; the expensive log tail is what
		// the four-lane evaluation overlaps.
		u0 := st.u53()
		u1 := st.u53()
		u2 := st.u53()
		u3 := st.u53()
		var l0, l1, l2, l3 float64
		if useLogPortable {
			l0, l1, l2, l3 = log4Portable(u0, u1, u2, u3)
		} else {
			l0, l1, l2, l3 = math.Log(u0), math.Log(u1), math.Log(u2), math.Log(u3)
		}
		gs[i] = geoFromLog(l0, lnQ)
		gs[i+1] = geoFromLog(l1, lnQ)
		gs[i+2] = geoFromLog(l2, lnQ)
		gs[i+3] = geoFromLog(l3, lnQ)
	}
	for ; i < k; i++ {
		gs[i] = st.GeometricLnQ(lnQ)
	}
	return placeSlots(gs[:k], pos, length, dst)
}

// DrawPath names the path each kernel takes now — block draws
// (GeometricSlots), lane draws (Lanes.Draw) and lane bit-gathers
// (Lanes.Bits), each on its assembly kernel or in Go — with the
// RCBCAST_NO_GEOBLOCK8 setting. It
// reads the variable afresh: the read that picks the paths runs at
// package init, which go test's result cache does not see, so a test
// that logs DrawPath is what keys a package's cached results on the
// variable.
func DrawPath() string {
	path := func(asm bool, goPath string) string {
		if asm {
			return "AVX-512 assembly"
		}
		return goPath
	}
	return fmt.Sprintf("block draws: %s; lane draws: %s; lane bits: %s (RCBCAST_NO_GEOBLOCK8=%q)",
		path(GeoBlock8Enabled(), "Go four-lane"), path(LaneSlots8Enabled(), "Go four-lane"),
		path(LaneBits8Enabled(), "Go bit loop"), os.Getenv("RCBCAST_NO_GEOBLOCK8"))
}
