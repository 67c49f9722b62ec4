package topology

import "fmt"

// Cache memoizes trial-invariant topologies with their CSR adjacency
// views across the trials one worker executes. Clique and grid graphs
// are a pure function of (spec, n), so a sweep's worker builds each
// exactly once however many trials it runs. Gilbert graphs are not
// cached: the model draws a fresh graph for every trial seed, so a
// sweep would never look one up twice, and callers build them into
// their own Scratch.
//
// Every entry owns its construction scratch, so a cached graph and its
// CSR stay valid for the entry's whole lifetime — unlike a build into a
// shared Scratch, which the next build invalidates: a graph in use
// stays valid across lookups as long as the capacity covers every graph
// held at once.
//
// A Cache must not be used by concurrently executing builds or lookups;
// give each worker its own (the engine's batch scratch embeds one).
// Cached graphs are byte-identical to fresh builds — pinned by test.
type Cache struct {
	capacity     int
	clock        uint64
	hits, misses uint64
	entries      []cacheEntry
}

type cacheKey struct {
	spec Spec
	n    int
}

type cacheEntry struct {
	key   cacheKey
	topo  Topology
	csr   *CSR
	sc    *Scratch
	stamp uint64
}

// NewCache returns a cache holding at most capacity graphs (minimum 1),
// evicting the least recently used.
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{capacity: capacity}
}

// Capacity reports the maximum number of live entries.
func (c *Cache) Capacity() int { return c.capacity }

// Stats reports the lookup counters.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// TrialInvariant reports whether the spec's graph is a pure function of
// (spec, n) alone — every kind but the seed-randomized gilbert — and so
// may be cached.
func (s Spec) TrialInvariant() bool { return s.Kind != "gilbert" }

// Get returns the topology for a trial-invariant (spec, n) plus its CSR
// adjacency view, building and caching on miss; a seed-randomized spec
// is an error. The CSR is nil for complete graphs (the engine's
// global-channel fast path needs none). The returned graph is valid
// until the entry is evicted: with a capacity of at least the number of
// graphs simultaneously in use, callers may hold results across
// subsequent Gets.
func (c *Cache) Get(spec Spec, n int) (Topology, *CSR, error) {
	if !spec.TrialInvariant() {
		return nil, nil, fmt.Errorf("topology: %s graphs differ per trial seed and are not cached", spec.Kind)
	}
	key := cacheKey{spec: spec, n: n}
	for i := range c.entries {
		e := &c.entries[i]
		if e.key == key {
			c.hits++
			c.clock++
			e.stamp = c.clock
			return e.topo, e.csr, nil
		}
	}
	c.misses++
	var e *cacheEntry
	if len(c.entries) < c.capacity {
		c.entries = append(c.entries, cacheEntry{sc: NewScratch()})
		e = &c.entries[len(c.entries)-1]
	} else {
		e = &c.entries[0]
		for i := range c.entries {
			if c.entries[i].stamp < e.stamp {
				e = &c.entries[i]
			}
		}
	}
	topo, err := spec.BuildInto(n, 0, e.sc)
	if err != nil {
		// Leave the victim entry unusable rather than half-built.
		e.key = cacheKey{}
		e.topo, e.csr = nil, nil
		return nil, nil, err
	}
	e.key = key
	e.topo = topo
	e.csr = nil
	if !topo.Complete() {
		e.csr = BuildCSR(topo, e.sc)
	}
	c.clock++
	e.stamp = c.clock
	return e.topo, e.csr, nil
}
