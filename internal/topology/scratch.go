package topology

// Scratch recycles the working buffers of topology construction across
// trials. Tight trial loops build a fresh graph per seed; with a
// Scratch the Gilbert points (positions and cells) and Alice's
// audience are reused at their high-water capacity instead of
// reallocated, and a grid is built into the scratch's own Grid value
// rather than boxed anew, which removes the topology layer from the
// steady-state allocation profile (engine.Scratch embeds one per
// worker). No adjacency is stored: both kinds compute it per query.
//
// A Scratch must never be shared by concurrently executing builds, and a
// topology built into a Scratch is valid only until the next build on
// the same Scratch. Graphs are byte-identical with and without one.
type Scratch struct {
	// Gilbert construction buffers.
	pts   []gilbertPoint
	alice []bool

	grid Grid
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
