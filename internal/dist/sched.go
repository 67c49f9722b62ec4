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
	waiting  int           // slots wanting a shard: in claim, or started and not claiming yet
	watch    chan struct{} // closed and replaced on every state change
}

// newSched plans shards [0, total); start > 0 marks a restored prefix
// (shards a previous coordinator process already merged, per the
// frontier journal) as done-and-merged, so only [start, total) is ever
// claimable.
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
// requeue, and both notify. counted says expect already counts the
// caller as waiting (a slot's first claim). Either way the caller
// counts as waiting for the whole call, so a tryClaim racing its
// wake-up never takes its shard, and stops counting when claim returns.
func (s *sched) claim(ctx context.Context, counted bool) (idx int, ok bool, err error) {
	s.mu.Lock()
	if !counted {
		s.waiting++
	}
	defer func() {
		s.waiting--
		s.mu.Unlock()
	}()
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

// expect registers n starting slots and counts them as waiting for a
// shard, so no tryClaim takes the shards they are about to claim. Each
// one stops counting at its first claim(ctx, true), or at uncount if it
// parks or exits first.
func (s *sched) expect(n int) {
	s.mu.Lock()
	s.slots += n
	s.waiting += n
	s.mu.Unlock()
}

// uncount drops one expected slot that parks or exits before its first
// claim.
func (s *sched) uncount() {
	s.mu.Lock()
	s.waiting--
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
// another slot waits for one — a slot with nothing to run has first
// call on every shard, so a small sweep spreads across the pool instead
// of queueing up behind one busy slot — and only while more shards are
// claimable than there are slots. An ahead shard is bound to its slot's
// worker, so near a sweep's end that rule leaves the last shards to
// whichever slot frees first, as if nothing ran ahead, instead of
// queueing them behind a slow worker while a fast one idles.
func (s *sched) tryClaim() (idx int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	claimable := sort.SearchInts(s.pending, s.frontier+s.window)
	if s.waiting > 0 || claimable <= s.slots {
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
