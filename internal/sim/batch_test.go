package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rcbcast/internal/core"
	"rcbcast/internal/engine"
	"rcbcast/internal/topology"
)

// scalarResults runs every spec on the scalar engine (engine.RunContext)
// — the oracle the session's kernel results must equal.
func scalarResults(t *testing.T, specs []TrialSpec) []*engine.Result {
	t.Helper()
	want := make([]*engine.Result, len(specs))
	for i := range specs {
		r, err := engine.RunContext(context.Background(), specs[i].options())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	return want
}

// TestStreamBatchMatchesStream is the wiring-level identity contract:
// for every worker count, the session's delivery sequence is trial
// order and every delivered result is DeepEqual to the scalar engine's
// run of the same spec; StreamBatch ignores its width. (Per-trial
// engine identity is pinned in internal/engine; this test pins the
// delivery above it.)
func TestStreamBatchMatchesStream(t *testing.T) {
	specs := jamSpecs(128, 19)
	want := scalarResults(t, specs)
	for _, width := range []int{0, 8} {
		for _, procs := range []int{1, 4} {
			got := make([]*engine.Result, len(specs))
			rec := &recordingSink{}
			if err := StreamBatch(context.Background(), procs, width, specs, collect(got), rec); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("width=%d procs=%d: results diverge from the scalar engine", width, procs)
			}
			for i, idx := range rec.order {
				if idx != i {
					t.Fatalf("width=%d procs=%d: delivery order %v not the trial order", width, procs, rec.order)
				}
			}
			if rec.flushes != 1 {
				t.Fatalf("width=%d procs=%d: Flush ran %d times, want once", width, procs, rec.flushes)
			}
		}
	}
}

// TestStreamBatchGroupsSplitAtPointBoundaries pins a heterogeneous spec
// list (stacked sweep points changing Params and Topology every few
// trials, so consecutive trials on one pooled scratch differ) against
// the scalar engine.
func TestStreamBatchGroupsSplitAtPointBoundaries(t *testing.T) {
	topos := []topology.Spec{
		{},
		{Kind: "grid", Reach: 2},
		{Kind: "gilbert", Radius: 0.25},
	}
	var specs []TrialSpec
	for point, n := range []int{96, 128} {
		for _, spec := range topos {
			s := jamSpecs(n, 5)
			for i := range s {
				s[i].Topology = spec
				s[i].Seed = SweepSeed(7, point, i)
				if !spec.IsClique() {
					// Bound sparse runs the way the scenario layer does:
					// out-of-reach nodes never pass the quiet test.
					s[i].Params.MaxRound = s[i].Params.StartRound + 3
				}
			}
			specs = append(specs, s...)
		}
	}
	want := scalarResults(t, specs)
	got := make([]*engine.Result, len(specs))
	if err := Stream(context.Background(), 2, specs, collect(got)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("stacked-point sweep diverges from the scalar engine")
	}
}

// TestStreamBatchScalarFallback: Configure hooks that give every trial
// its own MaxPhaseSlots run on the kernel and must deliver the scalar
// engine's results.
func TestStreamBatchScalarFallback(t *testing.T) {
	specs := jamSpecs(96, 6)
	for i := range specs {
		caps := 1<<20 + i // distinct per trial
		specs[i].Configure = func(o *engine.Options) { o.MaxPhaseSlots = caps }
	}
	want := scalarResults(t, specs)
	got := make([]*engine.Result, len(specs))
	if err := Stream(context.Background(), 1, specs, collect(got)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("per-trial MaxPhaseSlots diverges from the scalar engine")
	}
}

// TestStreamBatchPartialDeliveredCountsTrials pins the PartialError
// contract: Delivered counts exactly the trials delivered, and the
// failing sink stops the stream with the delivered prefix flushed.
func TestStreamBatchPartialDeliveredCountsTrials(t *testing.T) {
	specs := jamSpecs(96, 16)
	failAt := 9
	sink := &batchFailSink{failAt: failAt}
	err := Stream(context.Background(), 2, specs, sink)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	if pe.Delivered != failAt {
		t.Fatalf("Delivered = %d, want %d", pe.Delivered, failAt)
	}
	if sink.flushes != 1 {
		t.Fatalf("Flush ran %d times on early stop, want once", sink.flushes)
	}
}

// TestStreamBatchValidationError pins early-stop shape when a trial's
// options are invalid: a *PartialError naming the failing trial, with
// every trial before it delivered.
func TestStreamBatchValidationError(t *testing.T) {
	specs := jamSpecs(96, 8)
	bad := TrialSpec{Params: core.Params{N: -1}, Seed: 1}
	specs = append(specs, bad)
	rec := &recordingSink{}
	err := Stream(context.Background(), 1, specs, rec)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	if pe.Delivered != 8 {
		t.Fatalf("Delivered = %d, want 8", pe.Delivered)
	}
	if !strings.Contains(err.Error(), "trial 8:") {
		t.Fatalf("error does not name trial 8: %v", err)
	}
}

// TestStreamBatchCancellation pins context cancellation: a canceled
// sweep surfaces context.Canceled through the *PartialError with a
// trial-counted Delivered prefix already at the sinks.
func TestStreamBatchCancellation(t *testing.T) {
	specs := jamSpecs(96, 24)
	ctx, cancel := context.WithCancel(context.Background())
	stopAfter := 8
	rec := &recordingSink{}
	cancelSink := sinkFunc(func(i int, r *engine.Result) error {
		if i == stopAfter-1 {
			cancel()
		}
		return nil
	})
	// procs=1 runs the inline StreamMap path, which checks ctx before
	// every trial — the cancel is guaranteed to be observed mid-sweep.
	err := Stream(ctx, 1, specs, rec, cancelSink)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled through the partial error, got %v", pe.Err)
	}
	if pe.Delivered != len(rec.order) {
		t.Fatalf("Delivered = %d but %d trials reached the sink", pe.Delivered, len(rec.order))
	}
	for i, got := range rec.order {
		if got != i {
			t.Fatalf("delivered prefix out of order: %v", rec.order)
		}
	}
}

// batchFailSink accepts trials until failAt, then errors, counting
// flushes (failingSink in stream_test.go does not).
type batchFailSink struct {
	failAt  int
	flushes int
}

func (f *batchFailSink) Trial(i int, r *engine.Result) error {
	if i == f.failAt {
		return fmt.Errorf("sink full at trial %d", i)
	}
	return nil
}

func (f *batchFailSink) Flush() error { f.flushes++; return nil }

// sinkFunc adapts a function to the Sink interface (no-op Flush).
type sinkFunc func(i int, r *engine.Result) error

func (f sinkFunc) Trial(i int, r *engine.Result) error { return f(i, r) }
func (f sinkFunc) Flush() error                        { return nil }
