package topology

// Scratch recycles the working buffers of topology construction and of
// the CSR adjacency view across trials. Tight trial loops build a fresh
// graph per seed; with a Scratch the point coordinates, cell buckets,
// adjacency bitmatrix, and CSR arrays are reused at their high-water
// capacity instead of reallocated, which removes the topology layer from
// the steady-state allocation profile entirely (engine.Scratch embeds
// one per worker).
//
// A Scratch must never be shared by concurrently executing builds, and a
// topology built into a Scratch is valid only until the next build on
// the same Scratch. Graphs are byte-identical with and without one.
type Scratch struct {
	// Gilbert construction buffers.
	xs, ys     []float64
	degs       []int
	alice      []bool
	adjWords   []uint64
	bucketHead []int32
	bucketNext []int32

	csr CSR
}

// NewScratch returns an empty scratch; buffers grow to the sizes the
// builds it serves need.
func NewScratch() *Scratch { return &Scratch{} }

// grow returns a length-n buffer, reusing buf's capacity when it
// suffices. Contents are unspecified; callers overwrite every element.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// CSR is the engine-facing flat adjacency view of a topology:
// compressed sparse rows over listener neighborhoods. Row v —
// Nbr[Off[v]:Off[v+1]], ascending — lists the correct nodes v hears;
// Alice[v] reports mutual audibility between Alice and v. Resolving
// reception against these arrays replaces an interface dispatch per
// transmission record with a bounded binary search over one cache-line
// sized row, and is what fixed the sparse-path scratch regression (see
// BENCH_ENGINE.json). A Gilbert graph's view also carries the graph's
// adjacency bitmatrix, aliased rather than copied, so its Adjacent is
// one bit test.
type CSR struct {
	Off   []int32
	Nbr   []int32
	Alice []bool
	adj   bitmatrix // row v marks the nodes v hears; empty unless Gilbert
}

// Adjacent reports whether listener hears transmissions from src —
// whether src is in Row(listener) — mirroring Topology.Adjacent on the
// flattened rows.
func (c *CSR) Adjacent(src, listener int) bool {
	if c.adj.words != nil {
		return c.adj.get(listener, src)
	}
	lo, hi := c.Off[listener], c.Off[listener+1]
	s := int32(src)
	for lo < hi {
		mid := (lo + hi) / 2
		switch v := c.Nbr[mid]; {
		case v == s:
			return true
		case v < s:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// AliceHears mirrors Topology.AliceHears.
func (c *CSR) AliceHears(node int) bool { return c.Alice[node] }

// Row returns listener's neighborhood row — the ascending node ids it
// hears — as a direct view of the CSR arrays.
func (c *CSR) Row(listener int) []int32 {
	return c.Nbr[c.Off[listener]:c.Off[listener+1]]
}

// neighborAppender is the fast-fill hook: topology kinds that can
// enumerate a listener's neighborhood directly (in ascending id order)
// skip the generic O(n) Adjacent probe per row.
type neighborAppender interface {
	appendHeard(dst []int32, listener int) []int32
}

// BuildCSR flattens t into the scratch's CSR arrays and returns the
// view. The result aliases sc's buffers: it is valid until the next
// build on sc. A nil sc allocates fresh arrays.
func BuildCSR(t Topology, sc *Scratch) *CSR {
	if sc == nil {
		sc = NewScratch()
	}
	n := t.N()
	c := &sc.csr
	c.Off = grow(c.Off, n+1)
	c.Alice = grow(c.Alice, n)
	c.Nbr = c.Nbr[:0]
	c.adj = bitmatrix{}
	if g, ok := t.(*Gilbert); ok {
		c.adj = g.adj
	}
	na, fast := t.(neighborAppender)
	for v := 0; v < n; v++ {
		c.Off[v] = int32(len(c.Nbr))
		if fast {
			c.Nbr = na.appendHeard(c.Nbr, v)
		} else {
			for u := 0; u < n; u++ {
				if t.Adjacent(u, v) {
					c.Nbr = append(c.Nbr, int32(u))
				}
			}
		}
		c.Alice[v] = t.AliceHears(v)
	}
	c.Off[n] = int32(len(c.Nbr))
	return c
}
