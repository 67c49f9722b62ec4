// Package rng provides deterministic, splittable pseudo-random streams.
//
// Every random decision in the simulator is drawn from a Stream that is
// keyed by a path of integers, e.g. (seed, actorID, round, phase, purpose).
// Two engines that derive the same keyed stream draw exactly the same
// sequence, which is what makes the batch kernel and the scalar reference
// loop bit-for-bit equivalent (DESIGN.md §5.1).
//
// The generator is xoshiro256** seeded through SplitMix64, following the
// reference construction by Blackman and Vigna. It is not cryptographically
// secure; it is a simulation RNG chosen for speed, equidistribution, and
// cheap splitting.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used both as a seeding function and as a key mixer.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix collapses a key path into a single 64-bit value. Mixing is
// order-sensitive: Mix(1, 2) != Mix(2, 1). An empty path yields a fixed
// nonzero constant so that a zero-value key still produces a usable stream.
func Mix(parts ...uint64) uint64 {
	state := uint64(0x853c49e6748fea9b)
	for _, p := range parts {
		mixPart(&state, p)
	}
	return splitMix64(&state)
}

// mixPart folds one key part into the mixer state.
func mixPart(state *uint64, p uint64) {
	*state ^= splitMix64(state) ^ p
	// Re-mix after the xor so that consecutive zero parts still perturb
	// the state differently at each position.
	_ = splitMix64(state)
}

// mixSeeded collapses seed followed by path, exactly as
// Mix(append([]uint64{seed}, path...)...) would, without building the
// combined slice. It is the allocation-free key mixer behind Reseed and
// DeriveInto.
func mixSeeded(seed uint64, path []uint64) uint64 {
	state := uint64(0x853c49e6748fea9b)
	mixPart(&state, seed)
	for _, p := range path {
		mixPart(&state, p)
	}
	return splitMix64(&state)
}

// Stream is a deterministic pseudo-random stream. The zero value is a valid
// stream seeded from the zero key; prefer New or Derive for clarity.
type Stream struct {
	s    [4]uint64
	seed uint64 // the mixed key this stream was created from
	init bool
}

// New returns a stream keyed by seed and an optional path. Streams created
// with the same arguments produce identical sequences.
func New(seed uint64, path ...uint64) *Stream {
	st := &Stream{}
	st.Reseed(seed, path...)
	return st
}

// Reseed re-keys the stream in place to the sequence New(seed, path...)
// produces, discarding any prior state. It is the value-semantics
// constructor: a Stream living in a long-lived struct (or on a walker's
// stack) is re-pointed at a fresh keyed sequence without heap
// allocation, which is what lets tight simulation loops derive per-phase
// streams at zero steady-state allocation cost.
func (st *Stream) Reseed(seed uint64, path ...uint64) {
	key := seed
	if len(path) > 0 {
		key = mixSeeded(seed, path)
	}
	st.reseed(key)
}

// reseed initializes the xoshiro state from a single 64-bit key via
// SplitMix64, as recommended by the xoshiro authors.
func (st *Stream) reseed(key uint64) {
	sm := key
	for i := range st.s {
		st.s[i] = splitMix64(&sm)
	}
	// xoshiro must not be seeded with the all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	st.seed = key
	st.init = true
}

// Derive returns a new independent stream keyed by this stream's own key
// plus the given sub-path. Deriving does not consume randomness from the
// parent, so derivation order never perturbs parent draws.
func (st *Stream) Derive(path ...uint64) *Stream {
	st.ensure()
	return New(st.seed, path...)
}

// DeriveInto reseeds dst to the stream Derive(path...) would return,
// without allocating. dst may be st itself, in which case the stream
// re-keys to its own sub-path.
func (st *Stream) DeriveInto(dst *Stream, path ...uint64) {
	st.ensure()
	dst.Reseed(st.seed, path...)
}

// Seed reports the mixed key the stream was created from.
func (st *Stream) Seed() uint64 {
	st.ensure()
	return st.seed
}

func (st *Stream) ensure() {
	if !st.init {
		st.reseed(0)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// next advances the xoshiro state and returns the raw output. It is
// deliberately small enough to inline into every draw path (Uint64,
// GeometricLnQ); keeping the state step call-free is worth several
// nanoseconds per draw in the engine's skip-sampling loops.
func (st *Stream) next() uint64 {
	s := &st.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint64 returns the next 64 uniformly distributed bits.
func (st *Stream) Uint64() uint64 {
	st.ensure()
	return st.next()
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
// Scaling by 0x1p-53 multiplies instead of dividing; both are exact
// powers of two, so the value is bit-identical and the multiply is
// several cycles cheaper on every draw.
func (st *Stream) Float64() float64 {
	return float64(st.Uint64()>>11) * 0x1p-53
}

// Bernoulli reports true with probability p. Probabilities outside [0, 1]
// are clamped: p <= 0 is always false, p >= 1 always true (no draw is
// consumed in either degenerate case, keeping streams aligned across
// engines that can skip certain trials analytically).
func (st *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return st.Float64() < p
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless rejection method keeps the result unbiased.
func (st *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	bound := uint64(n)
	for {
		v := st.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Perm returns a uniformly random permutation of [0, n) using the
// Fisher-Yates shuffle.
func (st *Stream) Perm(n int) []int {
	p := make([]int, n)
	st.PermInto(p)
	return p
}

// PermInto fills p with a uniformly random permutation of [0, len(p)),
// drawing exactly the same sequence as Perm(len(p)) — the caller-buffer
// variant for loops that permute repeatedly without allocating.
func (st *Stream) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := st.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Geometric returns the number of failures before the first success in a
// sequence of Bernoulli(p) trials, i.e. a sample from Geometric(p) with
// support {0, 1, 2, ...}. It is the workhorse of event-driven slot
// simulation: a device that acts each slot with probability p next acts
// after Geometric(p) silent slots.
//
// p >= 1 returns 0. p <= 0 returns math.MaxInt (never). The inversion
// formula floor(ln U / ln(1-p)) is exact for the geometric distribution.
func (st *Stream) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return math.MaxInt
	}
	return st.GeometricLnQ(math.Log1p(-p))
}

// GeometricLnQ is Geometric(p) with lnQ = Log1p(-p) precomputed by the
// caller; it requires 0 < p < 1 (equivalently lnQ < 0). It consumes
// exactly one Float64 and evaluates floor(ln U / lnQ) with the same
// float64 operations as Geometric, so the two are bit-for-bit
// interchangeable for matching arguments. Callers that draw many skips
// at one fixed p (sampling.SlotSchedule) hoist the Log1p out of the
// draw loop this way — in engine profiles that log alone was ~11% of a
// whole protocol run.
func (st *Stream) GeometricLnQ(lnQ float64) int {
	st.ensure()
	// The xoshiro step (next) and the Float64 conversion are open-coded:
	// the whole draw then costs one call from the schedule's skip loop
	// instead of three, which is measurable at millions of draws per
	// engine run. Must mirror next() exactly.
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
	// Guard against u == 0, for which log is -inf and the sample would
	// round to +inf anyway; resample cheaply by nudging to the smallest
	// representable uniform instead (probability 2^-53 event).
	if u == 0 {
		u = 0x1p-53
	}
	g := math.Floor(math.Log(u) / lnQ)
	if g >= float64(math.MaxInt64/2) || math.IsNaN(g) {
		return math.MaxInt
	}
	return int(g)
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1,
// via inversion. Used by statistical tests and workload generators.
func (st *Stream) ExpFloat64() float64 {
	u := st.Float64()
	if u == 0 {
		u = 0x1p-53
	}
	return -math.Log(u)
}

// NormFloat64 returns a standard normal sample using the Box-Muller
// transform (the polar variant is avoided to keep draw counts fixed at two
// per call, preserving cross-engine stream alignment).
func (st *Stream) NormFloat64() float64 {
	u1 := st.Float64()
	if u1 == 0 {
		u1 = 0x1p-53
	}
	u2 := st.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
