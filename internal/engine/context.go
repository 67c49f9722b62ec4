package engine

import "fmt"

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
