package rng

import (
	"fmt"
	"testing"
)

// rekeyPaths draws n four-part key paths from sm: small actor ids,
// rounds and purposes like the engine's, and full 64-bit words.
func rekeyPaths(sm *uint64, n int) [][4]uint64 {
	paths := make([][4]uint64, n)
	for j := range paths {
		for i := range paths[j] {
			x := splitMix64(sm)
			if x&1 == 0 {
				x %= 300
			}
			paths[j][i] = x
		}
	}
	return paths
}

// checkRekey re-keys one stream per path under seed with a Rekey and
// with Stream.Reseed, and fails unless every stream is identical —
// state, key and the draws that follow.
func checkRekey(t *testing.T, seed uint64, paths [][4]uint64) {
	t.Helper()
	got := make([]Stream, len(paths))
	for j := range got {
		got[j].Reseed(^seed, uint64(j)) // a prior, different key
	}
	var rk Rekey
	rk.Start(seed)
	for j, p := range paths {
		rk.Add(&got[j], p[0], p[1], p[2], p[3])
	}
	rk.Flush()
	for j, p := range paths {
		want := New(seed, p[:]...)
		if got[j] != *want {
			t.Fatalf("seed %#x path %v (stream %d of %d): got %+v, want %+v", seed, p, j, len(paths), got[j], *want)
		}
		if a, b := got[j].Uint64(), want.Uint64(); a != b {
			t.Fatalf("seed %#x path %v: first draw %#x, want %#x", seed, p, a, b)
		}
	}
}

// TestRekeyMatchesReseed pins Rekey to Stream.Reseed for every batch
// size from 0 to 17 (none, partial, one full batch and a full batch plus
// a partial one), random seeds and paths, a zero seed and a zero path,
// and the edge keys.
func TestRekeyMatchesReseed(t *testing.T) {
	sm := uint64(0x7e4e7e4e)
	for n := 0; n <= 17; n++ {
		for trial := range 16 {
			seed := splitMix64(&sm)
			if trial == 0 {
				seed = 0
			}
			paths := rekeyPaths(&sm, n)
			if trial == 1 && n > 0 {
				paths[n-1] = [4]uint64{}
			}
			t.Run(fmt.Sprintf("n%d/%d", n, trial), func(t *testing.T) { checkRekey(t, seed, paths) })
		}
	}
	for _, e := range rekeyEdges() {
		checkRekey(t, e.seed, [][4]uint64{e.path})
	}
}

// TestRekeyEdgeKeys pins the edge keys to what they are built to hit: a
// mixed key of zero, and a key whose first xoshiro word is zero.
func TestRekeyEdgeKeys(t *testing.T) {
	e := rekeyEdges()
	if k := mixSeeded(e[1].seed, e[1].path[:]); k != 0 {
		t.Fatalf("zero-key path mixes to %#x", k)
	}
	if s := New(e[2].seed, e[2].path[:]...).s; s[0] != 0 || s == [4]uint64{} {
		t.Fatalf("zero-word path seeds state %#x", s)
	}
}

// FuzzRekeyMatchesReseed checks Rekey against Stream.Reseed for a fuzzed
// seed, batch size (0-17) and paths.
func FuzzRekeyMatchesReseed(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0))
	f.Add(uint64(1), uint64(0x9e3779b97f4a7c15), uint8(8))
	f.Add(uint64(0xffffffffffffffff), uint64(7), uint8(17))
	f.Fuzz(func(t *testing.T, seed, pathSeed uint64, n uint8) {
		sm := pathSeed
		checkRekey(t, seed, rekeyPaths(&sm, int(n)%18))
	})
}

// BenchmarkRekey times re-keying eight streams to four-part paths: one
// Rekey batch against eight Stream.Reseed calls.
func BenchmarkRekey(b *testing.B) {
	var sts [8]Stream
	b.Run("batch", func(b *testing.B) {
		var rk Rekey
		for i := uint64(0); b.Loop(); i++ {
			rk.Start(i)
			for j := range sts {
				rk.Add(&sts[j], 16+uint64(j), i, 3, 2)
			}
			rk.Flush()
		}
	})
	b.Run("reseed", func(b *testing.B) {
		for i := uint64(0); b.Loop(); i++ {
			for j := range sts {
				sts[j].Reseed(i, 16+uint64(j), i, 3, 2)
			}
		}
	})
}

// gamma is SplitMix64's state increment.
const gamma uint64 = 0x9e3779b97f4a7c15

// rekeyEdge is a seed and key path for the re-key tests.
type rekeyEdge struct {
	seed uint64
	path [4]uint64
}

// rekeyEdges returns the re-key tests' edge keys: the zero seed with the
// zero path; a path whose last part makes the mixed key zero; and one
// whose last part makes the key seed a first xoshiro word of zero. (An
// all-zero xoshiro state, which reseed guards against, cannot be reached
// from any key: SplitMix64's output function is a bijection and the four
// seeding states differ, so at most one of the four words is zero.)
func rekeyEdges() []rekeyEdge {
	zeroKey := rekeyEdge{seed: 7, path: [4]uint64{16, 3, 9}}
	zeroKey.path[3] = lastPartFor(zeroKey.seed, zeroKey.path, 0)
	zeroWord := rekeyEdge{seed: 11, path: [4]uint64{17, 2, 5}}
	zeroWord.path[3] = lastPartFor(zeroWord.seed, zeroWord.path, unmix(0)-gamma)
	return []rekeyEdge{{}, zeroKey, zeroWord}
}

// lastPartFor returns the last key part that makes seed and path's
// first three parts mix to key, by running the mixer backwards from key.
func lastPartFor(seed uint64, path [4]uint64, key uint64) uint64 {
	state := mixInit
	mixPart(&state, seed)
	for _, p := range path[:3] {
		mixPart(&state, p)
	}
	// mixPart(&state, p) leaves (state+γ) ^ mix(state+γ) ^ p + γ, and the
	// final splitMix64 adds γ and mixes: work back from key to p.
	x := state + gamma
	return (unmix(key) - gamma - gamma) ^ x ^ mix(x)
}

// mix is SplitMix64's output function: splitMix64 returns mix of the
// state it advanced to.
func mix(z uint64) uint64 {
	z -= gamma
	return splitMix64(&z)
}

// unmix inverts mix.
func unmix(z uint64) uint64 {
	z = unshift(z, 31) * inverse(0x94d049bb133111eb)
	z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9)
	return unshift(z, 30)
}

// unshift inverts z ^ (z >> k).
func unshift(z uint64, k uint) uint64 {
	x := z
	for range 64 / k {
		x = z ^ x>>k
	}
	return x
}

// inverse returns the multiplicative inverse of odd a modulo 2^64, by
// Newton's iteration.
func inverse(a uint64) uint64 {
	x := a // correct to 3 bits for odd a
	for range 5 {
		x *= 2 - a*x
	}
	return x
}
