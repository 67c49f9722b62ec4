package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcbcast/internal/dist/chaos"
	"rcbcast/internal/scenario"
	"rcbcast/internal/service"
	"rcbcast/internal/sim/sink"
)

func testScenario(name string) scenario.Scenario {
	return scenario.Scenario{
		Name:      name,
		N:         64,
		Adversary: scenario.AdversarySpec{Kind: "full"},
		Budget:    scenario.BudgetSpec{Pool: 1024},
		Overrides: scenario.Overrides{ExtraRounds: 6},
	}
}

// referenceNDJSON is the single-machine byte stream every distributed
// run must reproduce exactly.
func referenceNDJSON(t *testing.T, sc scenario.Scenario, trials int, base uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sc.Stream(context.Background(), 2, base, 0, trials, sink.NewNDJSON(&buf)); err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	return buf.Bytes()
}

// startWorker brings up a real service.Manager behind an httptest
// server — a full in-process worker, store and journals included.
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	m, err := service.NewManager(service.Config{Dir: t.TempDir(), Procs: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewServer(m))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return srv
}

// TestMergedOutputByteIdentical is the headline invariant: for worker
// counts {1, 2, 4} and deliberately uneven shard sizes, the
// coordinator's merged NDJSON is byte-identical to the single-machine
// run, and the summary folds every trial.
func TestMergedOutputByteIdentical(t *testing.T) {
	sc := testScenario("dist-identity")
	const trials, baseSeed = 37, uint64(1)
	want := referenceNDJSON(t, sc, trials, baseSeed)

	for _, workers := range []int{1, 2, 4} {
		for _, shardSize := range []int{5, 16, 64} { // 5 leaves a ragged tail; 64 > trials
			t.Run(fmt.Sprintf("workers=%d/shard=%d", workers, shardSize), func(t *testing.T) {
				urls := make([]string, workers)
				for i := range urls {
					urls[i] = startWorker(t).URL
				}
				c, err := New(Config{Workers: urls, ShardSize: shardSize, Logf: t.Logf})
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				sum, err := c.Run(context.Background(), sc, trials, baseSeed, &got)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("merged output differs from single-machine run:\n got %d bytes\nwant %d bytes", got.Len(), len(want))
				}
				if sum.Trials != trials {
					t.Fatalf("summary folded %d trials, want %d", sum.Trials, trials)
				}
				m := c.Metrics()
				if m.MergedTrials != trials || m.Shards[phaseDone] != m.TotalShards {
					t.Fatalf("metrics after completion: %+v", m)
				}
			})
		}
	}
}

// TestSummaryMatchesSequentialFold checks the merged summary against a
// sequential fold of the reference records (tolerantly for mean/var —
// Chan-merge is algebraically exact but floating-point rounding
// differs; exactly for n/min/max).
func TestSummaryMatchesSequentialFold(t *testing.T) {
	sc := testScenario("dist-summary")
	const trials, baseSeed = 24, uint64(1)
	srv := startWorker(t)
	c, err := New(Config{Workers: []string{srv.URL}, ShardSize: 7, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sum, err := c.Run(context.Background(), sc, trials, baseSeed, &out)
	if err != nil {
		t.Fatal(err)
	}

	seq := &Summary{}
	for _, line := range bytes.Split(bytes.TrimSpace(referenceNDJSON(t, sc, trials, baseSeed)), []byte("\n")) {
		var rec sink.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		seq.add(&rec)
	}
	if sum.Trials != seq.Trials || sum.CompletedRate != seq.CompletedRate {
		t.Fatalf("trials/completed: got %d/%v want %d/%v", sum.Trials, sum.CompletedRate, seq.Trials, seq.CompletedRate)
	}
	if sum.Rounds.N() != seq.Rounds.N() || sum.Rounds.Min() != seq.Rounds.Min() || sum.Rounds.Max() != seq.Rounds.Max() {
		t.Fatalf("rounds n/min/max diverge: got %d/%v/%v", sum.Rounds.N(), sum.Rounds.Min(), sum.Rounds.Max())
	}
	if d := math.Abs(sum.Rounds.Mean() - seq.Rounds.Mean()); d > 1e-9*math.Abs(seq.Rounds.Mean()) {
		t.Fatalf("rounds mean diverges by %g", d)
	}
}

// TestRetrySkipsReplayedPrefix drops a shard's first result stream
// mid-shard (via the chaos proxy); the retry reattaches, the replayed
// lines are skipped, and the merged bytes still match the
// single-machine run exactly.
func TestRetrySkipsReplayedPrefix(t *testing.T) {
	sc := testScenario("dist-retry")
	const trials, baseSeed = 12, uint64(1)
	want := referenceNDJSON(t, sc, trials, baseSeed)

	backend := startWorker(t)
	proxy := chaos.NewProxy(backend.URL)
	proxy.CutResults(0, 2) // first result stream dies after two lines
	front := httptest.NewServer(proxy)
	defer front.Close()

	c, err := New(Config{
		Workers:   []string{front.URL},
		ShardSize: 6,
		Backoff:   10 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	sum, err := c.Run(context.Background(), sc, trials, baseSeed, &got)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("merged output differs after a mid-shard stream drop")
	}
	if sum.Trials != trials {
		t.Fatalf("summary folded %d trials, want %d", sum.Trials, trials)
	}
	if c.Metrics().Retries < 1 {
		t.Fatal("expected at least one recorded retry")
	}
}

// TestPermanentRejectionFailsFast: a worker's 400 means the submission
// itself is bad — the run must fail without burning MaxAttempts.
func TestPermanentRejectionFailsFast(t *testing.T) {
	var submits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		submits.Add(1)
		http.Error(w, `{"error":"no"}`, http.StatusBadRequest)
	}))
	defer srv.Close()
	c, err := New(Config{Workers: []string{srv.URL}, ShardSize: 4, MaxAttempts: 50, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err = c.Run(context.Background(), testScenario("dist-reject"), 8, 1, &out)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("Run error = %v, want permanent rejection", err)
	}
	if n := submits.Load(); n > 2 {
		t.Fatalf("made %d submit attempts, want fail-fast", n)
	}
}

// TestUnreachableWorkerExhaustsAttempts: with every worker down the
// sweep fails after MaxAttempts rather than hanging.
func TestUnreachableWorkerExhaustsAttempts(t *testing.T) {
	c, err := New(Config{
		Workers:     []string{"http://127.0.0.1:1"}, // reserved port: connection refused
		ShardSize:   4,
		MaxAttempts: 3,
		Backoff:     time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), testScenario("dist-down"), 8, 1, &out)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "failed 3 attempts") {
			t.Fatalf("Run error = %v, want attempt exhaustion", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung with an unreachable worker")
	}
}

// TestSchedulerWindowGate pins the reorder-window discipline directly:
// no shard beyond frontier+window is ever claimable, the frontier shard
// always is, and requeued shards are claimed lowest-first.
func TestSchedulerWindowGate(t *testing.T) {
	ctx := context.Background()
	s := newSched(10, 2, 0)

	a, ok, err := s.claim(ctx, false)
	if err != nil || !ok || a != 0 {
		t.Fatalf("first claim = %d,%v,%v", a, ok, err)
	}
	b, _, _ := s.claim(ctx, false)
	if b != 1 {
		t.Fatalf("second claim = %d, want 1", b)
	}
	// Window of 2 with frontier 0: shard 2 must NOT be claimable yet.
	blocked := make(chan int, 1)
	go func() {
		idx, _, _ := s.claim(ctx, false)
		blocked <- idx
	}()
	select {
	case idx := <-blocked:
		t.Fatalf("claimed shard %d beyond the window", idx)
	case <-time.After(50 * time.Millisecond):
	}
	s.markDone() // shard 0 buffered
	s.advance()  // and merged: frontier 1 → shard 2 claimable
	select {
	case idx := <-blocked:
		if idx != 2 {
			t.Fatalf("unblocked claim = %d, want 2", idx)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("claim stayed blocked after the window advanced")
	}
	// A requeued low shard outranks pending higher ones.
	s.requeue(1)
	if idx, _, _ := s.claim(ctx, false); idx != 1 {
		t.Fatalf("after requeue claim = %d, want 1", idx)
	}

	// Cancellation unblocks a waiting claim.
	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		s2 := newSched(1, 1, 0)
		s2.claim(cctx, false) // takes shard 0
		_, _, err := s2.claim(cctx, false)
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("canceled claim returned no error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled claim stayed blocked")
	}
}

// TestContextCancelAbortsRun: canceling the caller's context stops a
// run against a worker that never produces output.
func TestContextCancelAbortsRun(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":"j0000000000000000"}`))
			return
		}
		w.WriteHeader(http.StatusOK)
		<-r.Context().Done() // stream that never sends a byte
	}))
	defer hang.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	c, err := New(Config{Workers: []string{hang.URL}, ShardSize: 4, StallTimeout: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer wg.Done()
		_, runErr = c.Run(ctx, testScenario("dist-cancel"), 8, 1, &bytes.Buffer{})
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not stop on context cancel")
	}
	if runErr == nil {
		t.Fatal("canceled Run returned nil error")
	}
}
