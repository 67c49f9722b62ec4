package rng

// Rekey re-keys streams in batches of up to eight: Add queues a stream
// with a four-part key path, and every eighth Add, and Flush, re-key the
// queued streams to the sequences New(seed, path...) produces for the
// seed given to Start. The seed's share of the key mixer is the same for
// every stream of the batch, so Start computes it once, and the rest of
// each key is mixed part by part across the batch, so the eight
// streams' multiply chains overlap instead of running one stream after
// another as Stream.Reseed's do. A queued stream is unspecified until
// the Flush that re-keys it; a stream must not be queued twice in one
// batch.
type Rekey struct {
	state uint64 // the key mixer's state after the seed
	n     int
	dst   [rekeyWidth]*Stream
	path  [rekeyParts][rekeyWidth]uint64
}

const (
	rekeyWidth = 8 // streams per batch
	rekeyParts = 4 // key path parts after the seed
)

// Start begins batches under seed, dropping any queued stream.
func (rk *Rekey) Start(seed uint64) {
	rk.state = mixInit
	mixPart(&rk.state, seed)
	clear(rk.dst[:rk.n])
	rk.n = 0
}

// Add queues st to be re-keyed to New(seed, p0, p1, p2, p3), re-keying
// the batch when it is full.
func (rk *Rekey) Add(st *Stream, p0, p1, p2, p3 uint64) {
	j := rk.n
	rk.dst[j] = st
	rk.path[0][j], rk.path[1][j], rk.path[2][j], rk.path[3][j] = p0, p1, p2, p3
	if rk.n = j + 1; rk.n == rekeyWidth {
		rk.Flush()
	}
}

// Flush re-keys the queued streams. It mixes part-major — each step
// across the batch before the next — so the streams' multiply chains
// interleave.
func (rk *Rekey) Flush() {
	n := rk.n
	var key [rekeyWidth]uint64
	for j := range n {
		key[j] = rk.state
	}
	for i := range rk.path {
		part := &rk.path[i]
		for j := range n {
			mixPart(&key[j], part[j])
		}
	}
	for j, st := range rk.dst[:n] {
		st.reseed(splitMix64(&key[j]))
		rk.dst[j] = nil
	}
	rk.n = 0
}
