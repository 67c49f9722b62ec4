package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/engine"
)

// recordingSink captures the delivery sequence: indices in arrival
// order plus a result fingerprint per trial.
type recordingSink struct {
	order   []int
	spent   []int64
	flushes int
}

func (r *recordingSink) Trial(i int, res *engine.Result) error {
	r.order = append(r.order, i)
	r.spent = append(r.spent, res.AdversarySpent)
	return nil
}

func (r *recordingSink) Flush() error { r.flushes++; return nil }

// TestStreamDeliversInOrder pins the session's core contract: every
// trial delivered exactly once, in index order, then one Flush.
func TestStreamDeliversInOrder(t *testing.T) {
	specs := jamSpecs(128, 12)
	rec := &recordingSink{}
	if err := Stream(context.Background(), 4, specs, rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.order) != len(specs) {
		t.Fatalf("delivered %d of %d trials", len(rec.order), len(specs))
	}
	for i, got := range rec.order {
		if got != i {
			t.Fatalf("delivery order %v not the trial order", rec.order)
		}
	}
	if rec.flushes != 1 {
		t.Fatalf("Flush ran %d times, want once", rec.flushes)
	}
}

// TestStreamSinkOrderProcsEquivalence is the streaming determinism
// contract one layer up from RunTrials: the full delivery sequence —
// indices and results — is identical for every worker count.
func TestStreamSinkOrderProcsEquivalence(t *testing.T) {
	specs := jamSpecs(128, 16)
	want := &recordingSink{}
	if err := Stream(context.Background(), 1, specs, want); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{0, 2, 8, 16} {
		got := &recordingSink{}
		if err := Stream(context.Background(), procs, specs, got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.order, want.order) || !reflect.DeepEqual(got.spent, want.spent) {
			t.Fatalf("procs=%d: delivery sequence diverges from sequential", procs)
		}
	}
}

// TestStreamMatchesEngineRun pins the session to the engine: streamed
// results equal the scalar oracle's (engine.RunScalar) for the same
// options.
func TestStreamMatchesEngineRun(t *testing.T) {
	specs := jamSpecs(128, 3)
	var got []*engine.Result
	err := Stream(context.Background(), 2, specs, collect(func() []*engine.Result {
		got = make([]*engine.Result, len(specs))
		return got
	}()))
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want, err := engine.RunScalar(context.Background(), engine.Options{
			Params:   spec.Params,
			Seed:     spec.Seed,
			Strategy: adversary.FullJam{},
			Pool:     energy.NewPool(1 << 10),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("trial %d diverges from the scalar oracle", i)
		}
	}
}

// TestStreamBoundedLiveResults asserts the memory bound the streaming
// API exists for: across a sweep several thousand times larger than the
// window, the number of live results — started but not yet delivered to
// the counting sink — never exceeds streamWindow(procs) = O(procs).
func TestStreamBoundedLiveResults(t *testing.T) {
	const procs = 4
	trials := 100_000
	if testing.Short() {
		trials = 5_000
	}
	var started, delivered, maxLive atomic.Int64
	specs := make([]TrialSpec, trials)
	for i := range specs {
		specs[i] = TrialSpec{
			Params: core.PracticalParams(16, 2),
			Seed:   TrialSeed(1, i),
			// The strategy factory runs once at each trial's start — the
			// earliest hook a spec offers — so started-delivered counts
			// results that are live (running or awaiting delivery).
			Strategy: func() adversary.Strategy {
				live := started.Add(1) - delivered.Load()
				for {
					old := maxLive.Load()
					if live <= old || maxLive.CompareAndSwap(old, live) {
						break
					}
				}
				return adversary.Null{}
			},
		}
	}
	count := 0
	err := Stream(context.Background(), procs, specs, countingSink{n: &count, delivered: &delivered})
	if err != nil {
		t.Fatal(err)
	}
	if count != trials {
		t.Fatalf("delivered %d of %d trials", count, trials)
	}
	if peak, window := maxLive.Load(), int64(streamWindow(procs)); peak > window {
		t.Fatalf("peak live results %d exceeds the O(procs) window %d", peak, window)
	} else {
		t.Logf("peak live results %d over %d trials (window %d)", peak, trials, window)
	}
}

// countingSink counts deliveries for the bounded-live assertion.
type countingSink struct {
	n         *int
	delivered *atomic.Int64
}

func (c countingSink) Trial(int, *engine.Result) error {
	*c.n++
	c.delivered.Add(1)
	return nil
}

func (countingSink) Flush() error { return nil }

// TestStreamCancellationTyped cancels mid-sweep and asserts the typed
// partial error: *PartialError wrapping context.Canceled, a delivered
// prefix, and Flush still invoked on every sink.
func TestStreamCancellationTyped(t *testing.T) {
	for _, procs := range []int{1, 4} {
		specs := jamSpecs(128, 64)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rec := &recordingSink{}
		stopAt := 5
		err := Stream(ctx, procs, specs, FuncCancelSink(func(i int) {
			if i == stopAt {
				cancel()
			}
		}), rec)
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("procs=%d: want *PartialError, got %v", procs, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("procs=%d: error must unwrap to context.Canceled: %v", procs, err)
		}
		if pe.Delivered <= stopAt || pe.Delivered >= len(specs) {
			t.Fatalf("procs=%d: delivered %d, want a strict mid-sweep prefix past trial %d",
				procs, pe.Delivered, stopAt)
		}
		if len(rec.order) != pe.Delivered {
			t.Fatalf("procs=%d: sink saw %d trials, PartialError says %d", procs, len(rec.order), pe.Delivered)
		}
		if rec.flushes != 1 {
			t.Fatalf("procs=%d: Flush must run on early stop (ran %d times)", procs, rec.flushes)
		}
	}
}

// FuncCancelSink calls fn with each delivered index (no-op Flush).
type FuncCancelSink func(i int)

func (f FuncCancelSink) Trial(i int, _ *engine.Result) error { f(i); return nil }
func (FuncCancelSink) Flush() error                          { return nil }

// TestStreamTrialErrorDeterministic pins the session's error rule: the
// lowest failing trial index wins, whatever the schedule, and earlier
// trials are still delivered.
func TestStreamTrialErrorDeterministic(t *testing.T) {
	mkSpecs := func() []TrialSpec {
		specs := jamSpecs(64, 10)
		specs[3].Params.N = -1 // invalid: fails engine validation
		specs[7].Params.N = -1
		return specs
	}
	for _, procs := range []int{1, 8} {
		rec := &recordingSink{}
		err := Stream(context.Background(), procs, mkSpecs(), rec)
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("procs=%d: want *PartialError, got %v", procs, err)
		}
		if pe.Delivered != 3 || !strings.Contains(err.Error(), "trial 3") {
			t.Fatalf("procs=%d: want deterministic stop at trial 3, got delivered=%d err=%v",
				procs, pe.Delivered, err)
		}
		if !reflect.DeepEqual(rec.order, []int{0, 1, 2}) {
			t.Fatalf("procs=%d: delivered prefix %v, want [0 1 2]", procs, rec.order)
		}
	}
}

// TestStreamSinkErrorStops: a failing sink stops the stream with its
// error and the delivered count.
func TestStreamSinkErrorStops(t *testing.T) {
	specs := jamSpecs(64, 8)
	sinkErr := errors.New("sink full")
	err := Stream(context.Background(), 4, specs, failingSink{at: 2, err: sinkErr})
	var pe *PartialError
	if !errors.As(err, &pe) || !errors.Is(err, sinkErr) || pe.Delivered != 2 {
		t.Fatalf("want *PartialError{Delivered: 2} wrapping the sink error, got %v", err)
	}
}

type failingSink struct {
	at  int
	err error
}

func (f failingSink) Trial(i int, _ *engine.Result) error {
	if i == f.at {
		return f.err
	}
	return nil
}

func (failingSink) Flush() error { return nil }

// TestStreamMapGeneric exercises the generic substrate with a
// non-engine payload and verifies in-order delivery.
func TestStreamMapGeneric(t *testing.T) {
	var got []int
	err := StreamMap(context.Background(), 8, 100,
		func(_ context.Context, i int) (int, error) { return i * i, nil },
		func(i, v int) error {
			if v != i*i {
				t.Fatalf("trial %d delivered %d", i, v)
			}
			got = append(got, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery order %v", got)
		}
	}
	if len(got) != 100 {
		t.Fatalf("delivered %d of 100", len(got))
	}
}

// TestStreamEmpty: a zero-trial stream still flushes its sinks.
func TestStreamEmpty(t *testing.T) {
	rec := &recordingSink{}
	if err := Stream(context.Background(), 4, nil, rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.order) != 0 || rec.flushes != 1 {
		t.Fatalf("empty stream: %+v", rec)
	}
}

// TestRunTrialsErrorCompatibility pins the wrapper's historical error
// shape: "sim: trial i: ..." with the lowest failing index.
func TestRunTrialsErrorCompatibility(t *testing.T) {
	specs := jamSpecs(64, 6)
	specs[2].Params.N = -1
	_, err := RunTrials(4, specs)
	if err == nil || !strings.HasPrefix(err.Error(), "sim: trial 2: ") {
		t.Fatalf("compatibility error shape broken: %v", err)
	}
}
