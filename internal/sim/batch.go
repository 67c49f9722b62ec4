package sim

import (
	"context"
	"sync"

	"rcbcast/internal/engine"
)

// batchScratches recycles the batch kernel's working state — the lane's
// scratch, reception bitsets and index, block schedules, and the
// cross-trial topology cache — across the trials a worker executes,
// exactly as scratches does for scalar trials.
var batchScratches = sync.Pool{New: func() any { return engine.NewBatchScratch() }}

// StreamBatch is Stream executing each trial on the batch kernel
// (engine.RunBatch), whose results are byte-identical to the scalar
// engine's; sink output is byte-for-byte the Stream output at every
// width and procs value, and an early stop's Delivered is exact. width
// only selects the engine: any value > 1 runs the kernel, one trial per
// call; width <= 1 is exactly Stream, the scalar oracle.
func StreamBatch(ctx context.Context, procs, width int, specs []TrialSpec, sinks ...Sink) error {
	if width <= 1 {
		return Stream(ctx, procs, specs, sinks...)
	}
	return stream(ctx, procs, specs, sinks, runKernel)
}

// runKernel executes one trial on a pooled batch scratch.
func runKernel(ctx context.Context, opts engine.Options) (*engine.Result, error) {
	bs := batchScratches.Get().(*engine.BatchScratch)
	defer batchScratches.Put(bs)
	rs, err := engine.RunBatchContext(ctx, []engine.Options{opts}, bs)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}
