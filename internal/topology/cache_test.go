package topology

import (
	"math"
	"sync"
	"testing"
)

// topoEqual compares two topologies structurally: same kind, size,
// Alice audibility, degrees, and full adjacency relation.
func topoEqual(t *testing.T, a, b Topology) {
	t.Helper()
	if a.Name() != b.Name() || a.N() != b.N() || a.Complete() != b.Complete() {
		t.Fatalf("topology headers differ: (%s,%d,%v) vs (%s,%d,%v)",
			a.Name(), a.N(), a.Complete(), b.Name(), b.N(), b.Complete())
	}
	n := a.N()
	for v := 0; v < n; v++ {
		if a.AliceHears(v) != b.AliceHears(v) {
			t.Fatalf("AliceHears(%d) differs", v)
		}
		if a.Degree(v) != b.Degree(v) {
			t.Fatalf("Degree(%d) differs: %d vs %d", v, a.Degree(v), b.Degree(v))
		}
		for u := 0; u < n; u++ {
			if a.Adjacent(u, v) != b.Adjacent(u, v) {
				t.Fatalf("Adjacent(%d,%d) differs", u, v)
			}
		}
	}
	ga, aok := a.(*Gilbert)
	gb, bok := b.(*Gilbert)
	if aok && bok {
		for i := 0; i < n; i++ {
			ax, ay := ga.Position(i)
			bx, by := gb.Position(i)
			if ax != bx || ay != by {
				t.Fatalf("Position(%d) differs: (%v,%v) vs (%v,%v)", i, ax, ay, bx, by)
			}
		}
	}
}

func csrEqual(t *testing.T, a, b *CSR) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("CSR presence differs: %v vs %v", a != nil, b != nil)
	}
	if a == nil {
		return
	}
	if len(a.Off) != len(b.Off) || len(a.Nbr) != len(b.Nbr) || len(a.Alice) != len(b.Alice) {
		t.Fatalf("CSR shapes differ")
	}
	for i := range a.Off {
		if a.Off[i] != b.Off[i] {
			t.Fatalf("CSR Off[%d] differs: %d vs %d", i, a.Off[i], b.Off[i])
		}
	}
	for i := range a.Nbr {
		if a.Nbr[i] != b.Nbr[i] {
			t.Fatalf("CSR Nbr[%d] differs: %d vs %d", i, a.Nbr[i], b.Nbr[i])
		}
	}
	for i := range a.Alice {
		if a.Alice[i] != b.Alice[i] {
			t.Fatalf("CSR Alice[%d] differs: %v vs %v", i, a.Alice[i], b.Alice[i])
		}
	}
}

// TestCacheTrialInvariantKinds pins the cache's central amortization:
// clique and grid are keyed on (spec, n) alone, so a sweep of any
// number of trials costs exactly one build each.
func TestCacheTrialInvariantKinds(t *testing.T) {
	c := NewCache(4)
	for _, spec := range []Spec{{}, {Kind: "clique"}, {Kind: "grid", Width: 8, Reach: 2}} {
		if !spec.TrialInvariant() {
			t.Fatalf("%v must be trial-invariant", spec)
		}
	}
	if (Spec{Kind: "gilbert", Radius: 0.2}).TrialInvariant() {
		t.Fatal("gilbert must not be trial-invariant")
	}
	spec := Spec{Kind: "grid", Width: 8, Reach: 2}
	first, firstCSR, err := c.Get(spec, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 38; i++ {
		topo, csr, err := c.Get(spec, 64)
		if err != nil {
			t.Fatal(err)
		}
		if topo != first || csr != firstCSR {
			t.Fatalf("lookup %d: grid lookup did not return the cached entry", i)
		}
	}
	hits, misses := c.Stats()
	if hits != 38 || misses != 1 {
		t.Fatalf("stats = (%d hits, %d misses), want (38, 1)", hits, misses)
	}
	// Fresh build is structurally identical to the cached graph.
	fresh, err := spec.Build(64, 999)
	if err != nil {
		t.Fatal(err)
	}
	topoEqual(t, first, fresh)
	csrEqual(t, firstCSR, BuildCSR(fresh, nil))
}

// TestCacheRejectsGilbert: a Gilbert graph is fresh for every trial
// seed, so the cache refuses it rather than serve one seed's graph to
// every trial; the lookup counts as neither hit nor miss.
func TestCacheRejectsGilbert(t *testing.T) {
	c := NewCache(4)
	if _, _, err := c.Get(Spec{Kind: "gilbert", Radius: 0.25}, 96); err == nil {
		t.Fatal("a gilbert lookup must fail")
	}
	if hits, misses := c.Stats(); hits+misses != 0 {
		t.Fatalf("stats = (%d, %d), want (0, 0)", hits, misses)
	}
}

// TestCacheEvictionLRU: a full cache evicts the least recently used
// entry, and the survivors' graphs stay valid and correct.
func TestCacheEvictionLRU(t *testing.T) {
	spec := Spec{Kind: "grid", Reach: 1}
	c := NewCache(2)
	if _, _, err := c.Get(spec, 48); err != nil { // miss: {48}
		t.Fatal(err)
	}
	if _, _, err := c.Get(spec, 49); err != nil { // miss: {48,49}
		t.Fatal(err)
	}
	if _, _, err := c.Get(spec, 48); err != nil { // hit: 48 most recent
		t.Fatal(err)
	}
	if _, _, err := c.Get(spec, 50); err != nil { // miss: evicts 49 -> {48,50}
		t.Fatal(err)
	}
	if _, _, err := c.Get(spec, 48); err != nil { // hit
		t.Fatal(err)
	}
	if _, _, err := c.Get(spec, 49); err != nil { // miss: 49 was evicted
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 4 {
		t.Fatalf("stats = (%d, %d), want (2, 4)", hits, misses)
	}
	// A rebuilt-after-eviction entry (its Scratch was recycled from the
	// victim) must equal a fresh build.
	live, csr, err := c.Get(spec, 49)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := spec.Build(49, 0)
	if err != nil {
		t.Fatal(err)
	}
	topoEqual(t, live, fresh)
	csrEqual(t, csr, BuildCSR(fresh, nil))
	if c.Capacity() != 2 {
		t.Fatalf("capacity changed: %d", c.Capacity())
	}
}

// TestCacheBuildError: an invalid spec reports its error and leaves the
// cache consistent (the victim entry is not served as a stale hit).
func TestCacheBuildError(t *testing.T) {
	c := NewCache(1)
	good := Spec{Kind: "grid", Reach: 2}
	if _, _, err := c.Get(good, 32); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(Spec{Kind: "grid", Radius: 1}, 32); err == nil {
		t.Fatal("expected a validation error")
	}
	topo, _, err := c.Get(good, 32)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := good.Build(32, 1)
	topoEqual(t, topo, fresh)
}

// TestCacheConcurrentWorkers drives sync.Pool-ed per-worker caches from
// many goroutines under -race, the way sim workers hold them: each
// worker owns its cache while it runs a trial, returns it, and every
// lookup must agree with a fresh build.
func TestCacheConcurrentWorkers(t *testing.T) {
	pool := sync.Pool{New: func() any { return NewCache(4) }}
	specs := []Spec{
		{},
		{Kind: "grid", Width: 6, Reach: 1},
		{Kind: "grid", Width: 5, Reach: 2},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for trial := 0; trial < 24; trial++ {
				c := pool.Get().(*Cache)
				spec := specs[(w+trial)%len(specs)]
				seed := uint64(trial % 5)
				topo, csr, err := c.Get(spec, 40)
				if err != nil {
					errs <- err
					pool.Put(c)
					return
				}
				fresh, err := spec.Build(40, seed)
				if err != nil {
					errs <- err
					pool.Put(c)
					return
				}
				// Inline structural spot-check (topoEqual would t.Fatal off
				// the test goroutine): degrees and Alice audibility.
				for v := 0; v < 40; v++ {
					if topo.Degree(v) != fresh.Degree(v) || topo.AliceHears(v) != fresh.AliceHears(v) {
						errs <- errMismatch{}
						pool.Put(c)
						return
					}
				}
				if !topo.Complete() && csr == nil {
					errs <- errMismatch{}
					pool.Put(c)
					return
				}
				pool.Put(c)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errMismatch struct{}

func (errMismatch) Error() string { return "cached topology disagrees with fresh build" }

// TestGilbertEdgeCountOracle checks the builder against the
// Reitzner–Schulte–Thäle first moment for the Gilbert graph on the unit
// square: two uniform points are within distance r with probability
//
//	p(r) = πr² − (8/3)r³ + ½r⁴            (r ≤ 1)
//
// so E[edges] = C(n,2)·p(r) and E[degree] = (n−1)·p(r). The empirical
// mean over a deterministic seed sweep must sit within a few standard
// errors of the analytic value.
func TestGilbertEdgeCountOracle(t *testing.T) {
	const (
		n     = 256
		r     = 0.2
		seeds = 300
	)
	spec := Spec{Kind: "gilbert", Radius: r}
	p := math.Pi*r*r - (8.0/3.0)*r*r*r + 0.5*r*r*r*r
	expected := float64(n*(n-1)/2) * p

	edgeCount := func(topo Topology) float64 {
		total := 0
		for v := 0; v < n; v++ {
			total += topo.Degree(v)
		}
		return float64(total) / 2
	}

	var sum, sumSq float64
	for seed := uint64(0); seed < seeds; seed++ {
		fresh, err := spec.Build(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		fe := edgeCount(fresh)
		sum += fe
		sumSq += fe * fe
	}
	mean := sum / seeds
	variance := sumSq/seeds - mean*mean
	se := math.Sqrt(variance / seeds)
	if diff := math.Abs(mean - expected); diff > 5*se {
		t.Fatalf("empirical mean edge count %.2f vs analytic %.2f (|diff|=%.2f > 5·SE=%.2f)",
			mean, expected, diff, 5*se)
	}
	if meanDeg, expDeg := 2*mean/n, float64(n-1)*p; math.Abs(meanDeg-expDeg) > 5*(2*se/n) {
		t.Fatalf("empirical mean degree %.4f vs analytic %.4f", meanDeg, expDeg)
	}
	t.Logf("edges: empirical %.2f, analytic %.2f, SE %.2f (n=%d, r=%g, %d seeds)",
		mean, expected, se, n, r, seeds)
}
