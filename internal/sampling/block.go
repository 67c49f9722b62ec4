package sampling

import (
	"math"

	"rcbcast/internal/rng"
)

// blockDraws caps the draws of one BlockSchedule refill after the
// first: enough to keep the eight-draw assembly kernel fed with four
// full blocks on dense schedules — send walks, Alice's walks, and the
// listen walks the batch kernel finishes off its draw lanes (a lane's
// last stragglers, resumed mid-phase) — halving the refill-bookkeeping
// rate against depth 16 at the cost of at most one extra wasted kernel
// block per walk. Every refill also caps its draws at the schedule's
// expected remaining actions plus one (never below 2), so sparse
// schedules do not burn whole blocks to learn they are done.
const blockDraws = 32

// firstDraws caps the first refill after Reset at one kernel block. It
// was set for listen walks, which end at their first data reception,
// often within a few events; they now draw on rng.Lanes and reach a
// BlockSchedule only as stragglers, most of them resumed past it. A
// send walk that stops at a budget death, or one that sends once or
// twice, still draws no more than one block it may not read; long
// walks pay one extra refill.
const firstDraws = 8

// BlockSchedule enumerates exactly the slot sequence of a SlotSchedule
// over the same stream, probability, and length — but draws its
// geometric skips in prefetched blocks (rng.Stream.GeometricSlots),
// which the batched engine kernel uses to overlap the log/divide tail
// of consecutive draws. The visible slots are bit-identical to the
// scalar schedule's (pinned by the differential test); the *stream* is
// left further advanced, which is safe wherever the stream is re-keyed
// before its next use — the engine Reseeds every schedule stream per
// phase, so leftover state is never observed. Do not substitute a
// BlockSchedule where a later consumer continues drawing from the same
// stream.
type BlockSchedule struct {
	st *rng.Stream
	p  float64
	// lnQ is Log1p(-lnQp), kept across Resets: the nodes of a phase
	// usually share one probability, so most Resets skip the log.
	lnQ, lnQp float64
	length    int
	pos       int // origin of the next geometric draw
	buf       [blockDraws]int32
	head, n   int
	exhausted bool
	everySlot bool
}

// Reset re-initializes the schedule in place over [0, length) with
// per-slot probability p drawn from st, mirroring SlotSchedule.Reset.
// Unlike the scalar schedule it draws nothing until the first Next.
func (s *BlockSchedule) Reset(st *rng.Stream, p float64, length int) {
	s.st, s.p, s.length = st, p, length
	s.pos = 0
	s.head, s.n = 0, 0
	s.everySlot = p >= 1
	s.exhausted = p <= 0 || length <= 0
	if !s.exhausted && !s.everySlot && p != s.lnQp {
		s.lnQ, s.lnQp = math.Log1p(-p), p
	}
}

// Resume re-initializes the schedule like Reset, but as if it had
// already placed the slots before pos: its next slot is pos plus st's
// next skip. It takes over a schedule drawn elsewhere up to pos from
// the stream state it left (rng.Lanes.Handoff).
func (s *BlockSchedule) Resume(st *rng.Stream, p float64, length, pos int) {
	s.Reset(st, p, length)
	s.pos = pos
	s.exhausted = s.exhausted || pos >= length
}

// Next returns the next action slot, or (0, false) when the phase is
// exhausted — the identical sequence SlotSchedule.Next yields. The
// buffered fast path is small enough to inline into the engine's walk
// loops; everything else lives in nextSlow.
func (s *BlockSchedule) Next() (slot int, ok bool) {
	h := s.head
	if h >= s.n {
		return s.nextSlow()
	}
	s.head = h + 1
	return int(s.buf[h]), true
}

// Take returns every already-drawn action slot not yet consumed,
// advancing past all of them, refilling once when the buffer is empty;
// it returns nil when the phase is exhausted. Consuming via Take yields
// exactly the Next sequence, one block at a time, letting dense walk
// loops range over a slice instead of paying a call per event. The
// returned slice aliases the schedule's buffer: it is valid until the
// next Take, Next, or Reset.
func (s *BlockSchedule) Take() []int32 {
	if s.head >= s.n {
		if s.exhausted {
			return nil
		}
		if s.everySlot {
			// Materialize the every-slot run in buffer-sized chunks so
			// Take has one shape; p >= 1 schedules are rare and cheap.
			n := 0
			for ; n < blockDraws && s.pos < s.length; n++ {
				s.buf[n] = int32(s.pos)
				s.pos++
			}
			s.exhausted = s.pos >= s.length
			s.head, s.n = 0, n
		} else {
			s.refill()
		}
		if s.head >= s.n {
			return nil
		}
	}
	b := s.buf[s.head:s.n]
	s.head = s.n
	return b
}

func (s *BlockSchedule) nextSlow() (slot int, ok bool) {
	if s.exhausted {
		return 0, false
	}
	if s.everySlot {
		slot = s.pos
		s.pos++
		if s.pos >= s.length {
			s.exhausted = true
		}
		return slot, true
	}
	s.refill()
	if s.head >= s.n {
		return 0, false
	}
	slot = int(s.buf[s.head])
	s.head++
	return slot, true
}

// refill draws the next block of action slots (rng.Stream.GeometricSlots
// applies the scalar schedule's termination rule). The draw count
// adapts to the expected remaining actions, capped at firstDraws on the
// first refill and blockDraws after it. pos is 0 only before the first
// refill: every later one starts past a slot an earlier one produced.
func (s *BlockSchedule) refill() {
	limit := blockDraws
	if s.pos == 0 {
		limit = firstDraws
	}
	want := min(max(int(s.p*float64(s.length-s.pos))+1, 2), limit)
	n, done := s.st.GeometricSlots(s.lnQ, s.pos, s.length, s.buf[:want])
	s.head, s.n = 0, n
	s.exhausted = done
	if n > 0 {
		s.pos = int(s.buf[n-1]) + 1
	}
}
