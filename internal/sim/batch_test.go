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

// TestStreamBatchMatchesStream is the wiring-level identity contract:
// for every batch width and worker count, StreamBatch's delivery
// sequence — indices and result fingerprints — is byte-for-byte the
// scalar Stream's. (Per-trial engine identity is pinned in
// internal/engine; this test pins the delivery above it.)
func TestStreamBatchMatchesStream(t *testing.T) {
	specs := jamSpecs(128, 19) // deliberately not a multiple of any width
	want := &recordingSink{}
	if err := Stream(context.Background(), 1, specs, want); err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2, 3, 8, 32} {
		for _, procs := range []int{1, 4} {
			got := &recordingSink{}
			if err := StreamBatch(context.Background(), procs, width, specs, got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.order, want.order) || !reflect.DeepEqual(got.spent, want.spent) {
				t.Fatalf("width=%d procs=%d: delivery sequence diverges from scalar stream", width, procs)
			}
			if got.flushes != 1 {
				t.Fatalf("width=%d procs=%d: Flush ran %d times, want once", width, procs, got.flushes)
			}
		}
	}
}

// TestStreamBatchGroupsSplitAtPointBoundaries pins a heterogeneous spec
// list (stacked sweep points changing Params and Topology every few
// trials) against the scalar stream.
func TestStreamBatchGroupsSplitAtPointBoundaries(t *testing.T) {
	topos := []topology.Spec{
		{},
		{Kind: "grid", Reach: 2},
		{Kind: "gilbert", Radius: 0.25},
	}
	var specs []TrialSpec
	for point, n := range []int{96, 128} {
		for _, spec := range topos {
			s := jamSpecs(n, 5) // 5 trials per point: fewer than the width
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
	want := &recordingSink{}
	if err := Stream(context.Background(), 1, specs, want); err != nil {
		t.Fatal(err)
	}
	got := &recordingSink{}
	if err := StreamBatch(context.Background(), 2, 8, specs, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.order, want.order) || !reflect.DeepEqual(got.spent, want.spent) {
		t.Fatal("stacked-point sweep diverges from scalar stream")
	}
}

// TestStreamBatchScalarFallback: Configure hooks that give every trial
// its own MaxPhaseSlots run on the kernel and must deliver the same
// results as Stream.
func TestStreamBatchScalarFallback(t *testing.T) {
	specs := jamSpecs(96, 6)
	for i := range specs {
		caps := 1<<20 + i // distinct per trial
		specs[i].Configure = func(o *engine.Options) { o.MaxPhaseSlots = caps }
	}
	want := &recordingSink{}
	if err := Stream(context.Background(), 1, specs, want); err != nil {
		t.Fatal(err)
	}
	got := &recordingSink{}
	if err := StreamBatch(context.Background(), 1, 4, specs, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.spent, want.spent) {
		t.Fatal("per-trial MaxPhaseSlots diverges from scalar stream")
	}
}

// TestStreamBatchPartialDeliveredCountsTrials pins the PartialError
// contract: Delivered counts exactly the trials delivered, and the
// failing sink stops the stream with the delivered prefix flushed.
func TestStreamBatchPartialDeliveredCountsTrials(t *testing.T) {
	specs := jamSpecs(96, 16)
	failAt := 9
	sink := &batchFailSink{failAt: failAt}
	err := StreamBatch(context.Background(), 2, 4, specs, sink)
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
	err := StreamBatch(context.Background(), 1, 4, specs, rec)
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
	err := StreamBatch(ctx, 1, 4, specs, rec, cancelSink)
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
