package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"rcbcast/internal/engine"
)

// A Sink consumes a streaming sweep's results. The session delivers
// every trial exactly once, in trial-index order, from a single
// goroutine — whatever the worker count — so implementations need not
// be concurrency-safe and may fold floating-point aggregates without
// losing bit-for-bit reproducibility. Flush is invoked once when the
// stream ends, *including* when it stops early (cancellation, a failing
// trial, a failing sink), so buffered sinks — journals, NDJSON/CSV
// writers — always persist the delivered prefix.
type Sink interface {
	// Trial consumes trial i's result. Returning an error stops the
	// stream; the error comes back wrapped in a *PartialError.
	Trial(i int, r *engine.Result) error
	// Flush finalizes the sink: write trailers, flush buffers.
	Flush() error
}

// PartialError reports a streaming sweep that stopped before every
// trial was delivered — context cancellation, a failing trial, or a
// sink error. Trials [0, Delivered) reached every sink (and any
// checkpoint journal) in order, so a canceled sweep can resume from
// Delivered. errors.Is sees context.Canceled / DeadlineExceeded through
// Unwrap when the stop came from the context.
type PartialError struct {
	// Delivered counts the trials delivered in order to every sink.
	Delivered int
	// Err is the underlying cause.
	Err error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("sim: stream stopped after %d trials: %v", e.Delivered, e.Err)
}

func (e *PartialError) Unwrap() error { return e.Err }

// reorderPerProc sizes the streaming reorder window: a worker may run
// ahead of in-order delivery by at most reorderPerProc·procs trials, so
// at most that many results are live (running or awaiting delivery) at
// once. The slack over 1·procs keeps workers busy when trial durations
// vary (a budget sweep's expensive tail would otherwise stall the pool
// on the cheap trials ahead of it) while preserving the O(procs) memory
// bound the streaming API exists for.
const reorderPerProc = 4

// streamWindow returns the reorder window for a resolved worker count.
func streamWindow(procs int) int { return reorderPerProc * procs }

// Window reports the streaming session's live-result bound for a worker
// count (<= 0 selects GOMAXPROCS, exactly as Stream does): at most
// Window(procs) trials of one sweep are running or awaiting in-order
// delivery at any moment. The sweep service surfaces the bound in its
// metrics and the limits tests assert against it; it is a property of
// the session, not a tunable. (Sweeps shorter than the worker count use
// an even smaller window, so this is an upper bound.)
func Window(procs int) int { return streamWindow(Procs(procs)) }

// streamItem carries one finished trial from a worker to the collector.
type streamItem[T any] struct {
	i   int
	v   T
	err error
}

// StreamMap is the deterministic streaming substrate under Stream,
// generic over the per-trial result type (multi-hop pipelines and
// baseline protocols stream through it directly). It runs
// fn(ctx, 0..n-1) on a pool of procs workers and calls deliver(i, v)
// in strict index order from the calling goroutine. It never
// materializes the result slice: at most streamWindow(procs) results
// are live at once, because a worker may only claim a new trial after
// enough older trials have been delivered.
//
// fn must be a pure function of its index. The first in-order failure
// wins deterministically: trials are delivered up to the lowest failing
// index and the stream stops there with a *PartialError, whatever the
// execution schedule. Cancellation of ctx stops workers at the next
// engine phase boundary and surfaces as a *PartialError wrapping the
// context's error.
func StreamMap[T any](ctx context.Context, procs, n int, fn func(ctx context.Context, i int) (T, error), deliver func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	procs = Procs(procs)
	if procs > n {
		procs = n
	}
	if procs == 1 {
		// Inline fast path: same delivery order and error rule by
		// construction.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return &PartialError{Delivered: i, Err: err}
			}
			v, err := fn(ctx, i)
			if err != nil {
				return &PartialError{Delivered: i, Err: fmt.Errorf("trial %d: %w", i, err)}
			}
			if err := deliver(i, v); err != nil {
				return &PartialError{Delivered: i, Err: err}
			}
		}
		return nil
	}

	ctxw, cancel := context.WithCancel(ctx)
	defer cancel()
	window := streamWindow(procs)
	// Results never block the workers: in-flight items are capped at
	// the window, which is exactly the channel's capacity.
	results := make(chan streamItem[T], window)
	// tickets is the window semaphore. A worker takes a ticket before
	// claiming a trial; the collector returns it only after the trial
	// is *delivered*, so claimed-but-undelivered trials ≤ window. The
	// gap trial (lowest undelivered index) was claimed before any
	// in-flight higher index and its worker already holds a ticket, so
	// delivery always makes progress — no deadlock.
	tickets := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tickets <- struct{}{}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(procs)
	for w := 0; w < procs; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctxw.Done():
					return
				case <-tickets:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(ctxw, i)
				results <- streamItem[T]{i: i, v: v, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// The collector: reorder out-of-schedule completions and deliver
	// the longest consecutive run. After a stop it keeps draining so
	// every worker has exited before StreamMap returns.
	pending := make(map[int]streamItem[T], window)
	delivered := 0
	var stopErr error
	for it := range results {
		if stopErr != nil {
			continue
		}
		pending[it.i] = it
		for {
			nxt, ok := pending[delivered]
			if !ok {
				break
			}
			delete(pending, delivered)
			if nxt.err != nil {
				stopErr = fmt.Errorf("trial %d: %w", delivered, nxt.err)
				cancel()
				break
			}
			if err := deliver(delivered, nxt.v); err != nil {
				stopErr = err
				cancel()
				break
			}
			delivered++
			tickets <- struct{}{}
		}
	}
	if stopErr != nil {
		return &PartialError{Delivered: delivered, Err: stopErr}
	}
	if delivered < n {
		// Workers stopped before claiming every trial: the parent
		// context fired and no in-order trial carried its error.
		err := ctx.Err()
		if err == nil {
			err = context.Canceled
		}
		return &PartialError{Delivered: delivered, Err: err}
	}
	return nil
}

// Stream is the streaming run session: it executes every spec on a pool
// of procs workers (procs <= 0 selects GOMAXPROCS) and delivers results
// to the sinks in trial order with bounded buffering — a million-trial
// sweep holds O(procs) live engine.Results instead of O(trials).
// Each trial is one engine.RunContext call on the batch kernel, whose
// recycled scratch serves the worker's trials in turn. Delivery is
// single-goroutine and index-ordered, so sink output is byte-identical
// for every procs value; ctx cancellation stops workers at the next
// engine phase boundary and returns a *PartialError whose Delivered
// prefix has reached every sink. Flush runs on every sink even when the
// stream stops early.
func Stream(ctx context.Context, procs int, specs []TrialSpec, sinks ...Sink) error {
	streamErr := StreamMap(ctx, procs, len(specs), func(ctx context.Context, i int) (*engine.Result, error) {
		return engine.RunContext(ctx, specs[i].options())
	}, func(i int, r *engine.Result) error {
		for _, s := range sinks {
			if err := s.Trial(i, r); err != nil {
				return err
			}
		}
		return nil
	})
	for _, s := range sinks {
		if err := s.Flush(); err != nil && streamErr == nil {
			streamErr = fmt.Errorf("sim: flush: %w", err)
		}
	}
	return streamErr
}

// StreamBatch is Stream; width is ignored.
//
// Deprecated: every sweep runs on the batch kernel. Call Stream. The
// one remaining caller is perfbench's ladder.
func StreamBatch(ctx context.Context, procs, width int, specs []TrialSpec, sinks ...Sink) error {
	return Stream(ctx, procs, specs, sinks...)
}

// collect is the Sink behind the RunTrials compatibility wrapper.
type collect []*engine.Result

func (c collect) Trial(i int, r *engine.Result) error { c[i] = r; return nil }
func (c collect) Flush() error                        { return nil }
