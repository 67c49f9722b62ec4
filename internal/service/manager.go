package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"rcbcast/internal/scenario"
	"rcbcast/internal/sim"
	"rcbcast/internal/sim/sink"
	"rcbcast/internal/version"
)

// Submission outcomes the server maps to HTTP statuses.
var (
	// ErrClientBusy: the client is at its per-client in-flight cap (429).
	ErrClientBusy = errors.New("service: client has too many jobs in flight")
	// ErrQueueFull: the shared FIFO is at capacity (429).
	ErrQueueFull = errors.New("service: job queue is full")
)

// testWrapSpecs, when set by a test in this package, wraps every job's
// trial specs before execution — the hook the concurrency-limits test
// uses to observe the live-result bound from inside the worker pool.
// Always nil in production.
var testWrapSpecs func(*Job, []sim.TrialSpec) []sim.TrialSpec

// testExtraSinks, when set by a test, appends sinks to every job's
// streaming session — paired with testWrapSpecs it measures the
// started-but-undelivered trial count against the live-result bound.
// Always nil in production.
var testExtraSinks func(*Job) []sim.Sink

// Manager owns the job lifecycle: a bounded FIFO queue feeding a fixed
// set of runner goroutines, each executing one job at a time on the
// shared engine pool (Config.Procs workers via sim.Stream). All
// durability flows through two kinds of journal: the store journal
// (jobs.ndjson), one line per job transition, and each job's output,
// one line per trial. The manager keeps no state a restart cannot
// rebuild from them.
type Manager struct {
	cfg     Config
	version string
	// Logf receives operational log lines; initialized from Config.Logf
	// (tests reassign it to t.Logf after construction).
	Logf func(format string, args ...any)

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	queue   chan *Job
	limiter *limiter
	store   *store

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string

	submitted atomic.Int64
	rejected  atomic.Int64
	streams   atomic.Int64
	draining  atomic.Bool
}

// NewManager opens (or creates) the store directory, replays its store
// journal, imports any jobs left in the older per-job directory layout,
// re-admits every resumable job — anything recorded as queued or
// running when the previous process died — and starts the runner pool.
// A store journal line that breaks the record schema fails it with a
// *StoreError.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("service: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: create store: %w", err)
	}
	m := &Manager{
		cfg:     cfg,
		version: version.String(),
		Logf:    cfg.Logf,
		jobs:    make(map[string]*Job),
		limiter: newLimiter(cfg.PerClient),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())

	st, recs, err := openStore(cfg.Dir, m.logf)
	if err != nil {
		return nil, err
	}
	if recs, err = importLegacy(cfg.Dir, st, recs, m.logf); err != nil {
		st.close()
		return nil, err
	}
	m.store = st
	var resume []*Job
	for _, rec := range recs {
		j, err := m.jobFromRecord(rec)
		if err != nil {
			m.logf("service: skip job %s: %v", rec.ID, err)
			continue
		}
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		if !j.state.terminal() {
			// queued or (pre-kill) running: runs again from its journal.
			j.state = StateQueued
			resume = append(resume, j)
		}
	}
	// The queue must admit every resumable job even when there are more
	// than QueueDepth of them — refusing to resume work the service
	// already accepted is worse than a one-time oversized queue.
	capacity := cfg.QueueDepth
	if len(resume) > capacity {
		capacity = len(resume)
	}
	m.queue = make(chan *Job, capacity)
	for _, j := range resume {
		m.limiter.force(j.Client)
		m.queue <- j
		m.logf("service: resuming job %s", j.ID)
	}

	m.wg.Add(cfg.Runners)
	for i := 0; i < cfg.Runners; i++ {
		go m.runner()
	}
	return m, nil
}

// jobFromRecord rebuilds a Job from its persisted form.
func (m *Manager) jobFromRecord(rec jobRecord) (*Job, error) {
	var sc scenario.Scenario
	if err := json.Unmarshal(rec.Scenario, &sc); err != nil {
		return nil, fmt.Errorf("decode scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	j := &Job{
		ID:       rec.ID,
		Client:   rec.Client,
		Scenario: sc,
		Trials:   rec.Trials,
		BaseSeed: rec.BaseSeed,
		Shard:    rec.Shard,
		Version:  rec.Version,
		out:      outputPath(m.cfg.Dir, rec.ID),
		sweep:    rec.Sweep,
		state:    rec.State,
		errMsg:   rec.Error,
		partials: rec.PartialErrors,
		canceled: rec.Canceled,
	}
	j.done.Store(int64(rec.Done))
	j.feed = newFeed(j.out, rec.State.terminal())
	return j, nil
}

// save appends the job's current mutable state to the store journal.
// A failed append is logged, not fatal: the job's output still holds
// every delivered trial, so the worst a lost line costs is a rerun
// that keeps them all.
func (m *Manager) save(j *Job) {
	if err := m.store.append(j.update); err != nil {
		m.logf("%v", err)
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.Logf != nil {
		m.Logf(format, args...)
	}
}

// Submit accepts a sweep: validate, dedupe on the sweep key, pin the
// sweep fingerprint, enforce the per-client cap and the queue bound,
// persist, enqueue, and create a new job's empty output. accepted
// reports whether this call scheduled work (a fresh job or the
// resumption of a failed/canceled one); a dedupe hit on a live or
// completed job returns accepted = false.
func (m *Manager) Submit(client string, sc scenario.Scenario, trials int, baseSeed uint64) (j *Job, accepted bool, err error) {
	return m.SubmitShard(client, sc, trials, baseSeed, scenario.Shard{})
}

// SubmitShard is Submit restricted to one contiguous shard [sh.Lo,
// sh.Hi) of the sweep — the worker half of the distributed split.
// trials remains the whole sweep's trial count (it anchors the shard's
// sweep-global seeds and indices); the zero shard means the whole
// sweep, making this a strict generalization of Submit. Each shard is
// its own job with its own journal, keyed by scenario + trials + seed +
// range.
func (m *Manager) SubmitShard(client string, sc scenario.Scenario, trials int, baseSeed uint64, sh scenario.Shard) (j *Job, accepted bool, err error) {
	if trials <= 0 {
		return nil, false, fmt.Errorf("service: trials must be positive (got %d)", trials)
	}
	if err := sc.Validate(); err != nil {
		return nil, false, err
	}
	if err := sh.Validate(trials); err != nil {
		return nil, false, err
	}
	id, err := jobID(sc, trials, baseSeed, sh)
	if err != nil {
		return nil, false, err
	}

	m.mu.Lock()
	if existing, ok := m.jobs[id]; ok {
		defer m.mu.Unlock()
		return m.resubmitLocked(existing, client)
	}
	j, err = m.admitLocked(client, sc, trials, baseSeed, sh, id)
	m.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	m.createOutput(j)
	return j, true, nil
}

// admitLocked pins, persists and enqueues a job id no earlier submit
// made. Callers hold m.mu.
func (m *Manager) admitLocked(client string, sc scenario.Scenario, trials int, baseSeed uint64, sh scenario.Shard, id string) (*Job, error) {
	sweep, err := pinSweep(sc, trials, baseSeed, sh)
	if err != nil {
		return nil, err
	}

	if !m.limiter.acquire(client) {
		m.rejected.Add(1)
		return nil, ErrClientBusy
	}
	j := &Job{
		ID:       id,
		Client:   client,
		Scenario: sc,
		Trials:   trials,
		BaseSeed: baseSeed,
		Shard:    sh,
		Version:  m.version,
		out:      outputPath(m.cfg.Dir, id),
		sweep:    sweep,
		state:    StateQueued,
	}
	j.feed = newFeed(j.out, false)
	// Every send to the queue holds m.mu, so room now is room at the
	// send below. The opening line must land before a runner can see the
	// job: its updates are only valid after it.
	if len(m.queue) == cap(m.queue) {
		m.limiter.release(client)
		m.rejected.Add(1)
		return nil, ErrQueueFull
	}
	if err := m.store.append(j.opening); err != nil {
		m.logf("%v", err)
	}
	m.queue <- j
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.submitted.Add(1)
	if sh.IsZero() {
		m.logf("service: job %s queued by %s (%d trials)", id, client, trials)
	} else {
		m.logf("service: job %s queued by %s (shard %s of %d trials)", id, client, sh, trials)
	}
	return j, nil
}

// createOutput creates a newly admitted job's empty output file on the
// submitting goroutine, outside m.mu. A coordinator submits its next
// shard while the runner still computes the current one, so the inode
// creation happens off the runner's path and the run's OpenRecords only
// opens an existing file. An existing file is never touched (O_EXCL):
// the runner may have got there first, and a file another sweep left is
// the runner's to reject. Any other failure is only logged — the run
// creates the file itself, as it always could.
func (m *Manager) createOutput(j *Job) {
	f, err := os.OpenFile(j.out, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err == nil {
		err = f.Close()
	}
	if err != nil && !errors.Is(err, fs.ErrExist) {
		m.logf("service: job %s: create output: %v", j.ID, err)
	}
}

// resubmitLocked handles a submit that hits an existing job id: live and
// done jobs are returned as-is (idempotent submit — the caller
// reattaches); failed and canceled jobs are re-admitted and resume from
// their journal.
func (m *Manager) resubmitLocked(j *Job, client string) (*Job, bool, error) {
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state == StateQueued || state == StateRunning || state == StateDone {
		return j, false, nil
	}
	if !m.limiter.acquire(client) {
		m.rejected.Add(1)
		return nil, false, ErrClientBusy
	}
	j.mu.Lock()
	j.Client = client // the limiter slot now belongs to the resubmitter
	j.state = StateQueued
	j.canceled = false
	j.errMsg = ""
	j.mu.Unlock()
	select {
	case m.queue <- j:
	default:
		m.limiter.release(client)
		m.rejected.Add(1)
		j.mu.Lock()
		j.state = state
		j.mu.Unlock()
		return nil, false, ErrQueueFull
	}
	j.feed.reopen()
	m.submitted.Add(1)
	m.save(j)
	m.logf("service: job %s re-queued by %s (resume from %d trials)", j.ID, client, j.done.Load())
	return j, true, nil
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List snapshots every job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel requests a job stop. A running job is interrupted at the next
// engine phase boundary (its delivered prefix stays journaled, so a
// resubmit resumes it); a queued job is canceled in place. Canceling a
// done job is an error; canceling an already-canceled one is not.
func (m *Manager) Cancel(id string) error {
	j, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("service: unknown job %s", id)
	}
	j.mu.Lock()
	switch j.state {
	case StateDone:
		j.mu.Unlock()
		return fmt.Errorf("service: job %s already completed", id)
	case StateCanceled:
		j.mu.Unlock()
		return nil
	case StateFailed:
		j.mu.Unlock()
		return fmt.Errorf("service: job %s already failed", id)
	}
	j.canceled = true
	cancelRun := j.cancelRun
	queued := j.state == StateQueued && cancelRun == nil
	if queued {
		j.state = StateCanceled
	}
	j.mu.Unlock()

	switch {
	case cancelRun != nil:
		cancelRun() // the runner finishes the transition
	case queued:
		j.feed.setTerminal()
		m.limiter.release(j.Client)
		m.save(j)
	}
	m.logf("service: job %s cancel requested", id)
	return nil
}

// runner is one job-execution loop: claim the oldest queued job, run it
// to its next stop (completion, cancellation, failure, shutdown),
// repeat.
func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			if m.claim(j) {
				m.runJob(j)
			}
		}
	}
}

// claim moves a dequeued job to running, unless it was canceled while
// waiting (Cancel already finished that transition — just drop it).
func (m *Manager) claim(j *Job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceled || j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	return true
}

// runJob executes one job attempt through the streaming session and
// classifies the outcome. Every path leaves the output a valid
// contiguous prefix of the sweep's records, which is the whole
// durability story: the next attempt — in this process or the next —
// keeps it and appends the rest.
func (m *Manager) runJob(j *Job) {
	runCtx, cancelRun := context.WithCancel(m.ctx)
	defer cancelRun()
	j.mu.Lock()
	j.cancelRun = cancelRun
	j.mu.Unlock()

	err := m.runSweep(runCtx, j)

	var pe *sim.PartialError
	isPartial := errors.As(err, &pe)
	j.mu.Lock()
	j.cancelRun = nil
	if isPartial {
		j.partials++
	}
	switch {
	case err == nil:
		j.state = StateDone
	case j.canceled:
		j.state = StateCanceled
	case isPartial && m.ctx.Err() != nil:
		// Graceful shutdown: the job drained with its output a
		// valid prefix; the next process start re-admits it.
		j.state = StateQueued
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	state := j.state
	j.mu.Unlock()

	j.feed.closeRun(state.terminal())
	if state.terminal() {
		m.limiter.release(j.Client)
	}
	m.save(j)
	switch state {
	case StateDone:
		m.logf("service: job %s done (%d trials)", j.ID, j.done.Load())
	case StateFailed:
		m.logf("service: job %s failed: %v", j.ID, err)
	case StateCanceled:
		m.logf("service: job %s canceled after %d trials", j.ID, j.done.Load())
	case StateQueued:
		m.logf("service: job %s drained at %d trials (shutdown)", j.ID, j.done.Load())
	}
}

// runSweep is the one place a job touches the execution stack. It
// refuses a run whose specs no longer match the fingerprint pinned at
// submit, reopens the job's output as its record journal, and streams
// only the trials the file lacks, appending their lines after its kept
// prefix. Every sink sees sweep-global trial indices.
func (m *Manager) runSweep(ctx context.Context, j *Job) error {
	specs, err := j.Scenario.ShardSpecs(j.BaseSeed, 0, j.Trials, j.Shard)
	if err != nil {
		return err
	}
	if err := m.checkPin(j, sink.Fingerprint(specs)); err != nil {
		return err
	}
	if testWrapSpecs != nil {
		specs = testWrapSpecs(j, specs)
	}
	lo, _ := j.shardRange()
	lg, done, size, err := sink.OpenRecords(j.out, "", sink.Sequence{Lo: lo, Hi: lo + len(specs), N: specs[0].Params.N})
	if err != nil {
		return err
	}
	if done > 0 {
		m.logf("service: job %s keeps %d/%d trials from its output", j.ID, done, len(specs))
	}
	j.done.Store(int64(done))
	j.execBase.Store(int64(done))
	j.execStart.Store(0)
	j.feed.openForRun(lg, size)
	sinks := []sim.Sink{sink.NewNDJSON(j.feed), meterSink{j: j, lo: lo}}
	if testExtraSinks != nil {
		sinks = append(sinks, testExtraSinks(j)...)
	}
	for i, s := range sinks {
		sinks[i] = sink.Offset(lo+done, s)
	}
	return sim.Stream(ctx, m.cfg.Procs, specs[done:], sinks...)
}

// checkPin compares a run's fingerprint with the job's pin. A mismatch
// fails the run while the output holds any bytes, since they may be
// another sweep's. With no output there is nothing to splice onto, so
// the job is re-pinned instead: that is how an operator resets a job,
// by deleting its output file.
func (m *Manager) checkPin(j *Job, fp string) error {
	j.mu.Lock()
	pinned := j.sweep
	j.mu.Unlock()
	if pinned == fp {
		return nil
	}
	if pinned != "" {
		st, err := os.Stat(j.out)
		if err == nil && st.Size() > 0 || err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf(
				"service: job %s was started by a different sweep (fingerprint %s, this sweep %s) — delete %s to rerun it",
				j.ID, pinned, fp, filepath.Base(j.out))
		}
	}
	j.mu.Lock()
	j.sweep = fp
	j.mu.Unlock()
	if err := m.store.append(func() jobRecord {
		rec := j.update()
		rec.Sweep = fp
		return rec
	}); err != nil {
		return err
	}
	if pinned != "" {
		m.logf("service: job %s has no output; re-pinned from fingerprint %s to %s", j.ID, pinned, fp)
	}
	return nil
}

// BeginDrain flips the service to not-ready: GET /readyz answers 503
// from here on, so probing coordinators stop routing new shards while
// in-flight work finishes. Draining is one-way — a server that started
// shutting down never re-advertises readiness.
func (m *Manager) BeginDrain() {
	if !m.draining.Swap(true) {
		m.logf("service: draining — readiness withdrawn")
	}
}

// Ready reports whether the service accepts new work (false once
// draining began).
func (m *Manager) Ready() bool { return !m.draining.Load() }

// Close drains the service: withdraw readiness, cancel every running
// job (each stops at its next engine phase boundary with its journal
// intact and its state re-queued for the next start) and wait for the
// runners, bounded by ctx. A deadline overrun is reported, not fatal —
// the journals are consistent at every instant anyway.
func (m *Manager) Close(ctx context.Context) error {
	m.BeginDrain()
	m.cancel()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		if err := m.store.close(); err != nil {
			m.logf("service: close store journal: %v", err)
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain deadline exceeded: %w", ctx.Err())
	}
}

// StreamStart / StreamEnd track active result subscribers for metrics.
func (m *Manager) StreamStart() { m.streams.Add(1) }
func (m *Manager) StreamEnd()   { m.streams.Add(-1) }

// Metrics is the hand-rolled counter snapshot behind GET /metrics.
type Metrics struct {
	Version         string         `json:"version"`
	Ready           bool           `json:"ready"`
	QueueLen        int            `json:"queue_len"`
	QueueCap        int            `json:"queue_cap"`
	Jobs            map[State]int  `json:"jobs"`
	Submitted       int64          `json:"submitted"`
	Rejected        int64          `json:"rejected"`
	ActiveStreams   int64          `json:"active_streams"`
	Procs           int            `json:"procs"`
	Runners         int            `json:"runners"`
	LiveResultBound int            `json:"live_result_bound_per_job"`
	PoolUtilization float64        `json:"pool_utilization"`
	ClientsInFlight map[string]int `json:"clients_in_flight,omitempty"`
}

// Metrics snapshots the service counters: queue depth, per-state job
// counts, live streams, and the engine-pool numbers — including the
// streaming session's live-result bound (≤ sim.Window(procs) results
// in flight per running job, DESIGN.md §8).
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	perState := make(map[State]int, 5)
	running := 0
	for _, j := range m.jobs {
		j.mu.Lock()
		perState[j.state]++
		if j.state == StateRunning {
			running++
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	return Metrics{
		Version:         m.version,
		Ready:           m.Ready(),
		QueueLen:        len(m.queue),
		QueueCap:        cap(m.queue),
		Jobs:            perState,
		Submitted:       m.submitted.Load(),
		Rejected:        m.rejected.Load(),
		ActiveStreams:   m.streams.Load(),
		Procs:           sim.Procs(m.cfg.Procs),
		Runners:         m.cfg.Runners,
		LiveResultBound: sim.Window(m.cfg.Procs),
		PoolUtilization: float64(running) / float64(m.cfg.Runners),
		ClientsInFlight: m.limiter.snapshot(),
	}
}

// Version reports the build stamp jobs are recorded with.
func (m *Manager) Version() string { return m.version }
