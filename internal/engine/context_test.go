package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/trace"
)

func ctxOpts(seed uint64) Options {
	return Options{
		Params:   core.PracticalParams(128, 2),
		Seed:     seed,
		Strategy: adversary.FullJam{},
		Pool:     energy.NewPool(1 << 12),
	}
}

// TestRunContextMatchesRun: with a live context the run is bit-for-bit
// the plain Run — the cancellation hooks must not perturb anything.
func TestRunContextMatchesRun(t *testing.T) {
	want, err := Run(ctxOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), ctxOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunContext diverges from Run")
	}
}

// TestRunContextPreCanceled: a canceled context stops the run before
// the first phase with the typed partial-run error.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func(context.Context, Options) (*Result, error){
		"kernel": RunContext,
		"scalar": RunScalar,
	} {
		res, err := run(ctx, ctxOpts(5))
		if res != nil {
			t.Fatalf("%s: partial run must not return a Result", name)
		}
		var pe *PartialRunError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: want *PartialRunError, got %v", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: must unwrap to context.Canceled: %v", name, err)
		}
		if pe.Slots != 0 {
			t.Fatalf("%s: pre-canceled run simulated %d slots", name, pe.Slots)
		}
	}
}

// cancelAfterPhases cancels its context once n phases have started —
// a deterministic mid-run cancellation hook.
type cancelAfterPhases struct {
	trace.Nop
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfterPhases) PhaseStart(core.Phase) {
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
}

// TestRunContextMidRunCancel cancels during execution and checks the
// partial error reports real progress.
func TestRunContextMidRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := ctxOpts(7)
	tr := &cancelAfterPhases{n: 4, cancel: cancel}
	opts.Tracer = tr
	res, err := RunContext(ctx, opts)
	if res != nil {
		t.Fatal("canceled run must not return a Result")
	}
	var pe *PartialRunError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialRunError, got %v", err)
	}
	if pe.Slots == 0 {
		t.Fatal("mid-run cancellation must report simulated slots")
	}
	if tr.seen != 4 {
		t.Fatalf("run continued %d phases past the cancellation", tr.seen-4)
	}
}
