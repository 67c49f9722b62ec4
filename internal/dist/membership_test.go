package dist

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rcbcast/internal/dist/chaos"
	"rcbcast/internal/scenario"
)

// fastProbes is the in-process test timing: probes every 10ms, a 60ms
// liveness deadline, and millisecond backoff, so churn resolves in tens
// of milliseconds instead of seconds.
func fastProbes(cfg Config) Config {
	cfg.ProbeInterval = 10 * time.Millisecond
	cfg.ProbeTimeout = 100 * time.Millisecond
	cfg.LivenessDeadline = 60 * time.Millisecond
	cfg.Backoff = 5 * time.Millisecond
	cfg.BackoffCap = 20 * time.Millisecond
	return cfg
}

// runDeadline bounds Run in the churn tests. Passing runs take about
// 5 s under -race on a 2-vCPU VM; a sweep whose whole pool has died has
// no way out of Run, so without a deadline it would hang until the test
// binary's timeout and hide every later result.
const runDeadline = time.Minute

// runBounded runs c.Run under runDeadline in the background and returns
// the channel its error arrives on.
func runBounded(c *Coordinator, sc scenario.Scenario, trials int, baseSeed uint64, out io.Writer) <-chan error {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	done := make(chan error, 1)
	go func() {
		defer cancel()
		_, err := c.Run(ctx, sc, trials, baseSeed, out)
		done <- err
	}()
	return done
}

// TestJoinMidSweepRebalances starts a sweep on one worker and registers
// a second once some trials have merged: the joiner must claim shards
// (rebalance), and the merged bytes stay identical to the
// single-machine run.
func TestJoinMidSweepRebalances(t *testing.T) {
	sc := testScenario("dist-join")
	const trials, baseSeed = 600, uint64(1)
	want := referenceNDJSON(t, sc, trials, baseSeed)

	first := startWorker(t)
	second := startWorker(t)

	c, err := New(fastProbes(Config{
		Workers:   []string{first.URL},
		ShardSize: 25,
		Logf:      t.Logf,
	}))
	if err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	done := runBounded(c, sc, trials, baseSeed, &got)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err = chaos.Drive(ctx, func() int64 { return c.Metrics().MergedTrials }, time.Millisecond,
		chaos.Event{Name: "join second worker", AtMerged: 50, Do: func() error {
			joined, jerr := c.Join(second.URL)
			if jerr == nil && !joined {
				t.Error("Join reported no pool change for a fresh worker")
			}
			return jerr
		}},
	)
	if err != nil {
		t.Fatalf("chaos script: %v", err)
	}

	if err := <-done; err != nil {
		t.Fatalf("Run: %v (members %v)", err, c.Members())
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("merged output differs after mid-sweep join (%d vs %d bytes)", got.Len(), len(want))
	}
	m := c.Metrics()
	if m.Joins < 1 {
		t.Fatalf("metrics record %d joins, want ≥1", m.Joins)
	}
	if m.PerWorkerInFlight[second.URL] == 0 && m.Members[second.URL] != StateReady {
		t.Fatalf("joined worker missing from membership: %+v", m.Members)
	}
}

// TestProbeDeathRebalancesInFlight kills a worker (chaos proxy down:
// every request, probes included, fails) mid-sweep. The probe loop must
// declare it dead within the liveness deadline, requeue its in-flight
// shards without burning attempts, and the survivor finishes the sweep
// byte-identically.
func TestProbeDeathRebalancesInFlight(t *testing.T) {
	sc := testScenario("dist-probe-death")
	const trials, baseSeed = 600, uint64(1)
	want := referenceNDJSON(t, sc, trials, baseSeed)

	victim := startWorker(t)
	proxy := chaos.NewProxy(victim.URL)
	front := httptest.NewServer(proxy)
	defer front.Close()
	survivor := startWorker(t)

	cfg := fastProbes(Config{
		Workers:     []string{front.URL, survivor.URL},
		ShardSize:   25,
		MaxAttempts: 2, // death must NOT charge attempts, so 2 suffices
		Logf:        t.Logf,
	})
	// The stall watchdog must outlast the probe path so death detection
	// is what rebalances the shard, not the stream stall.
	cfg.StallTimeout = 30 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	done := runBounded(c, sc, trials, baseSeed, &got)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err = chaos.Drive(ctx, func() int64 { return c.Metrics().MergedTrials }, time.Millisecond,
		chaos.Event{Name: "kill victim", AtMerged: 50, Do: func() error {
			proxy.SetDown(true)
			return nil
		}},
	)
	if err != nil {
		t.Fatalf("chaos script: %v", err)
	}

	if err := <-done; err != nil {
		t.Fatalf("Run after worker death: %v (members %v)", err, c.Members())
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("merged output differs after probe-detected death (%d vs %d bytes)", got.Len(), len(want))
	}
	m := c.Metrics()
	if m.Leaves < 1 {
		t.Fatalf("metrics record %d leaves, want ≥1", m.Leaves)
	}
	if m.Members[front.URL] != StateDead {
		t.Fatalf("dead worker state = %q, want %q", m.Members[front.URL], StateDead)
	}
}

// TestDrainingWorkerClaimsNothingNew flips a worker to not-ready
// mid-sweep and back: while draining it must claim no new shards (its
// slots park on waitReady), and the sweep still finishes exactly.
func TestDrainingWorkerClaimsNothingNew(t *testing.T) {
	sc := testScenario("dist-drain")
	const trials, baseSeed = 400, uint64(1)
	want := referenceNDJSON(t, sc, trials, baseSeed)

	backend := startWorker(t)
	proxy := chaos.NewProxy(backend.URL)
	front := httptest.NewServer(proxy)
	defer front.Close()
	helper := startWorker(t)

	c, err := New(fastProbes(Config{
		Workers:   []string{front.URL, helper.URL},
		ShardSize: 20,
		Logf:      t.Logf,
	}))
	if err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	done := runBounded(c, sc, trials, baseSeed, &got)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drainObserved := make(chan struct{})
	err = chaos.Drive(ctx, func() int64 { return c.Metrics().MergedTrials }, time.Millisecond,
		chaos.Event{Name: "drain worker", AtMerged: 40, Do: func() error {
			proxy.SetNotReady(true)
			go func() {
				// Wait until the prober actually observes draining, then
				// recover the worker so the sweep can use it again.
				for c.Metrics().Members[front.URL] != StateDraining {
					time.Sleep(time.Millisecond)
				}
				close(drainObserved)
				time.Sleep(20 * time.Millisecond)
				proxy.SetNotReady(false)
			}()
			return nil
		}},
	)
	if err != nil {
		t.Fatalf("chaos script: %v", err)
	}

	select {
	case <-drainObserved:
	case <-time.After(30 * time.Second):
		t.Fatalf("prober never observed the draining state (members %v)", c.Members())
	}
	if err := <-done; err != nil {
		t.Fatalf("Run: %v (members %v)", err, c.Members())
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("merged output differs after drain/recover (%d vs %d bytes)", got.Len(), len(want))
	}
	// The worker must have recovered to ready (drain is reversible,
	// unlike death).
	if s := c.Metrics().Members[front.URL]; s != StateReady {
		t.Fatalf("recovered worker state = %q, want %q", s, StateReady)
	}
}

// TestCoordinatorCrashResume simulates the coordinator SIGKILL in
// process: run half the sweep with a journal, abandon it (cancel =
// crash; the journal and output file stay behind), append a torn
// partial line to both files, then run a brand-new Coordinator over the
// same journal + output. The resumed run must replay nothing merged,
// truncate the torn tails, and produce byte-identical output and an
// identical summary.
func TestCoordinatorCrashResume(t *testing.T) {
	sc := testScenario("dist-coord-crash")
	const trials, baseSeed = 300, uint64(1)
	want := referenceNDJSON(t, sc, trials, baseSeed)

	worker := startWorker(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.frontier")
	outPath := filepath.Join(dir, "merged.jsonl")

	newCoord := func() *Coordinator {
		c, err := New(fastProbes(Config{
			Workers:   []string{worker.URL},
			ShardSize: 10,
			Journal:   journal,
			Logf:      t.Logf,
		}))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	openOut := func() *os.File {
		f, err := os.OpenFile(outPath, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// First run: cancel mid-sweep once ≥100 trials merged — the
	// in-process stand-in for SIGKILL (state is only what the journal
	// and output file hold).
	c1 := newCoord()
	out1 := openOut()
	ctx1, cancel1 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c1.Run(ctx1, sc, trials, baseSeed, out1)
		done <- err
	}()
	dctx, dcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer dcancel()
	if err := chaos.Drive(dctx, func() int64 { return c1.Metrics().MergedTrials }, time.Millisecond,
		chaos.Event{Name: "crash coordinator", AtMerged: 100, Do: func() error {
			cancel1()
			return nil
		}},
	); err != nil {
		t.Fatalf("chaos script: %v", err)
	}
	if err := <-done; err == nil {
		t.Fatal("crashed run returned nil error")
	}
	out1.Close()

	// A real SIGKILL can tear the final line of either file; fake both.
	for _, p := range []string{journal, outPath} {
		f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"torn`); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	// Second run: fresh Coordinator, same journal + output.
	c2 := newCoord()
	out2 := openOut()
	sum, err := c2.Run(context.Background(), sc, trials, baseSeed, out2)
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	out2.Close()

	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed output differs from single-machine run (%d vs %d bytes)", len(got), len(want))
	}
	if sum.Trials != trials {
		t.Fatalf("resumed summary folded %d trials, want %d", sum.Trials, trials)
	}
	m := c2.Metrics()
	if m.ResumedShards < 1 {
		t.Fatalf("resumed run restored %d shards from the journal, want ≥1", m.ResumedShards)
	}

	// The summary must equal an uninterrupted distributed run's, too
	// (per-shard refold reproduces the fold tree exactly).
	c3, err := New(Config{Workers: []string{worker.URL}, ShardSize: 10, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var unbroken bytes.Buffer
	sum3, err := c3.Run(context.Background(), sc, trials, baseSeed, &unbroken)
	if err != nil {
		t.Fatal(err)
	}
	if sum.String() != sum3.String() {
		t.Fatalf("resumed summary %q != uninterrupted summary %q", sum, sum3)
	}
}

// TestJitterDeterministicAndBounded pins the backoff jitter: same seed
// → same sequence, different slots → different sequences, and every
// factor lands in [0.5, 1.0).
func TestJitterDeterministicAndBounded(t *testing.T) {
	const d = time.Second
	a := newJitter(42, "http://w1", 0)
	b := newJitter(42, "http://w1", 0)
	other := newJitter(42, "http://w1", 1)
	diverged := false
	for i := 0; i < 1000; i++ {
		da, db, do := a.scale(d), b.scale(d), other.scale(d)
		if da != db {
			t.Fatalf("same seed diverged at step %d: %v vs %v", i, da, db)
		}
		if da < d/2 || da >= d {
			t.Fatalf("jittered delay %v outside [%v, %v)", da, d/2, d)
		}
		if da != do {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different slots produced identical jitter sequences")
	}
}
