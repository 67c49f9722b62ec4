package engine

import (
	"context"
	"fmt"
)

// PartialRunError reports an execution stopped at a phase boundary by
// context cancellation. No Result accompanies it: the run's invariants
// (delivery counts, cost summaries, termination flags) only hold for
// completed executions, so a partial run carries its progress on the
// error instead.
type PartialRunError struct {
	// Rounds is the last fully executed round.
	Rounds int
	// Slots is the number of slots simulated before the stop.
	Slots int64
	// Err is the context's error (context.Canceled or
	// context.DeadlineExceeded); errors.Is sees it through Unwrap.
	Err error
}

func (e *PartialRunError) Error() string {
	return fmt.Sprintf("engine: run canceled after round %d (%d slots): %v", e.Rounds, e.Slots, e.Err)
}

func (e *PartialRunError) Unwrap() error { return e.Err }

// RunContext executes the protocol on the sequential engine, checking
// ctx at every phase boundary. Cancellation returns a *PartialRunError;
// a run that completes before the context fires returns its Result
// exactly as Run would.
func RunContext(ctx context.Context, opts Options) (*Result, error) {
	r, err := newRun(&opts)
	if err != nil {
		return nil, err
	}
	defer r.releaseScratch()
	if err := r.loop(ctx, r.seqPhase); err != nil {
		return nil, err
	}
	return r.result(), nil
}

// RunActorsContext is RunContext on the goroutine-per-node actor
// engine. Results are bit-for-bit identical to RunContext for identical
// Options; the actor pool is torn down whether the run completes or is
// canceled.
func RunActorsContext(ctx context.Context, opts Options) (*Result, error) {
	r, err := newRun(&opts)
	if err != nil {
		return nil, err
	}
	defer r.releaseScratch()
	exec := newActorPool(r)
	defer exec.shutdown()
	if err := r.loop(ctx, exec.phase); err != nil {
		return nil, err
	}
	return r.result(), nil
}
