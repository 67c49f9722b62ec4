package dist

import (
	"context"
	"sort"
	"sync"
)

// sched is the coordinator's shard scheduler: a priority queue of
// pending shard indices gated by the merge window. claim hands out the
// lowest pending index, but only while it lies within WindowShards of
// the merge frontier — the shard-granularity version of sim.Stream's
// ticket semaphore. The gate bounds buffered out-of-order results and
// guarantees the frontier shard (the one the merger is waiting on) is
// always claimable, which is what makes the merge loop deadlock-free:
// an unmerged shard is, at every instant, either buffered, running on
// some worker, or at the head of the pending queue inside the window.
type sched struct {
	mu       sync.Mutex
	pending  []int // sorted ascending; lowest claimed first
	frontier int   // shards [0, frontier) are fully merged
	done     int   // shards completed (lines all buffered)
	total    int
	window   int
	slots    int           // worker slots started and not yet exited
	fresh    int           // started slots that have neither claimed nor parked yet
	watch    chan struct{} // closed and replaced on every state change
}

// newSched plans shards [0, total); start > 0 marks a restored prefix
// (the whole shards a previous coordinator process left in the merged
// output) as done-and-merged, so only [start, total) is ever claimable.
func newSched(total, window, start int) *sched {
	s := &sched{
		pending:  make([]int, 0, total-start),
		frontier: start,
		done:     start,
		total:    total,
		window:   window,
		watch:    make(chan struct{}),
	}
	for i := start; i < total; i++ {
		s.pending = append(s.pending, i)
	}
	return s
}

// notifyLocked wakes every claim waiter; callers hold s.mu.
func (s *sched) notifyLocked() {
	close(s.watch)
	s.watch = make(chan struct{})
}

// claim blocks until a shard index inside the merge window is pending
// and returns it, or returns ok=false when every shard has completed,
// or ctx's error when canceled. An in-flight shard owned by another
// worker keeps claim waiting: it will either complete (markDone) or
// requeue, and both notify. first says this is a fresh slot's first
// claim: the slot stops counting as fresh. A claim that blocks found
// nothing claimable, and tryClaim's slot rule leaves it a shard among
// any that turn claimable, so only fresh slots need counting.
func (s *sched) claim(ctx context.Context, first bool) (idx int, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if first {
		s.fresh--
	}
	for {
		if s.done == s.total {
			return 0, false, nil
		}
		if len(s.pending) > 0 && s.pending[0] < s.frontier+s.window {
			idx = s.pending[0]
			s.pending = s.pending[1:]
			return idx, true, nil
		}
		watch := s.watch
		s.mu.Unlock()
		select {
		case <-watch:
		case <-ctx.Done():
		}
		s.mu.Lock()
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
	}
}

// expect registers n starting slots and counts them as fresh, so no
// tryClaim takes the shards they are about to claim. Each one stops
// counting at its first claim(ctx, true), or at uncount if it parks or
// exits first.
func (s *sched) expect(n int) {
	s.mu.Lock()
	s.slots += n
	s.fresh += n
	s.mu.Unlock()
}

// uncount drops one fresh slot that parks or exits before its first
// claim.
func (s *sched) uncount() {
	s.mu.Lock()
	s.fresh--
	s.mu.Unlock()
}

// leave deregisters an exiting slot.
func (s *sched) leave() {
	s.mu.Lock()
	s.slots--
	s.mu.Unlock()
}

// tryClaim is claim's non-blocking form for submitting a shard ahead:
// it takes the lowest pending shard inside the window, but never while
// a slot is fresh, and only while more shards are claimable than there
// are slots. Every other claimer is a registered slot blocked in claim,
// so that leaves a shard for each: a slot with nothing to run never
// loses its shard to one running ahead, and a small sweep spreads
// across the pool instead of queueing behind one busy slot. An ahead
// shard is bound to its slot's worker, so near a sweep's end the rule
// also leaves the last shards to whichever slot frees first, as if
// nothing ran ahead, instead of queueing them behind a slow worker
// while a fast one idles.
func (s *sched) tryClaim() (idx int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	claimable := sort.SearchInts(s.pending, s.frontier+s.window)
	if s.fresh > 0 || claimable <= s.slots {
		return 0, false
	}
	idx = s.pending[0]
	s.pending = s.pending[1:]
	return idx, true
}

// requeue returns a failed shard to the pending queue so any worker can
// reclaim it.
func (s *sched) requeue(idx int) {
	s.mu.Lock()
	at := sort.SearchInts(s.pending, idx)
	s.pending = append(s.pending, 0)
	copy(s.pending[at+1:], s.pending[at:])
	s.pending[at] = idx
	s.notifyLocked()
	s.mu.Unlock()
}

// markDone records that a shard's results are fully buffered, waking
// claimers so they can observe completion.
func (s *sched) markDone() {
	s.mu.Lock()
	s.done++
	s.notifyLocked()
	s.mu.Unlock()
}

// advance moves the merge frontier past one merged shard, widening the
// claim window.
func (s *sched) advance() {
	s.mu.Lock()
	s.frontier++
	s.notifyLocked()
	s.mu.Unlock()
}

// snapshot reports (frontier, done, pending count) for metrics.
func (s *sched) snapshot() (frontier, done, pending int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frontier, s.done, len(s.pending)
}
