package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a percentile before it
// may be reported as the tail.
const minBeyond = 10

// tailLadder lists the candidate tail percentiles in parts per ten
// thousand (integers, so rank arithmetic has no rounding error).
var tailLadder = []int{5000, 9000, 9900, 9990, 9999}

// rank returns the 1-based nearest-rank position of percentile pt (per
// ten thousand) among n sorted samples.
func rank(pt, n int) int {
	r := (pt*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPct returns the highest ladder percentile (per ten thousand) with
// at least minBeyond of n samples ranked above it. Below 2·minBeyond
// samples no percentile qualifies and the tail collapses to the median.
func tailPct(n int) int {
	best := tailLadder[0]
	for _, pt := range tailLadder {
		if n-rank(pt, n) >= minBeyond {
			best = pt
		}
	}
	return best
}

// timing summarizes one timing's samples: median, tail and sample count.
type timing struct {
	P50, Tail float64
	N         int
}

func summarize(samples []float64) timing {
	n := len(samples)
	if n == 0 {
		return timing{}
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return timing{
		P50:  s[rank(5000, n)-1],
		Tail: s[rank(tailPct(n), n)-1],
		N:    n,
	}
}

// median is the middle sample (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// validName reports whether s is a legal metric name: a leading letter
// or digit, then at most 63 more of [A-Za-z0-9_.-].
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, c := range []byte(s) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case i > 0 && (c == '_' || c == '.' || c == '-'):
		default:
			return false
		}
	}
	return true
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's reported values by name.
type metrics map[string]metric

// set records a value, rejecting illegal names and non-finite values so
// a bad metric fails the run instead of producing unparsable output.
func (m metrics) set(name, unit string, v float64) error {
	if !validName(name) {
		return fmt.Errorf("perfbench: illegal metric name %q", name)
	}
	if _, dup := m[name]; dup {
		return fmt.Errorf("perfbench: metric %q reported twice", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("perfbench: metric %q is not finite", name)
	}
	m[name] = metric{Value: v, Unit: unit}
	return nil
}

// setDist records a timing as name.p50, name.tail and name.n.
func (m metrics) setDist(name, unit string, d timing) error {
	if err := m.set(name+".p50", unit, d.P50); err != nil {
		return err
	}
	if err := m.set(name+".tail", unit, d.Tail); err != nil {
		return err
	}
	return m.set(name+".n", "count", float64(d.N))
}

// ratio divides, reading 0/0 as 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
