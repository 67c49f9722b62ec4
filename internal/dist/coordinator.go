package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rcbcast/internal/scenario"
)

// Shard lifecycle phases, as reported by Metrics.
const (
	phasePending  = "pending"
	phaseAssigned = "assigned"
	phaseDone     = "done"
)

// shardState is one planned shard's mutable state. A shard is owned
// exclusively: by the worker loop that claimed it while an attempt
// runs (sent, sum — handed off through the scheduler's lock), and by
// the merge loop after lines closes (sum — handed off through the
// close). phase and attempts are additionally read by Metrics, so they
// live behind the small mutex.
type shardState struct {
	shard scenario.Shard
	n     int // the sweep's node count, which every result line carries
	// lines buffers the shard's result lines for the merge loop. Its
	// capacity is the shard's full trial count, so a producing worker
	// never blocks on it — the merge window (sched) is what bounds
	// total buffered memory, at WindowShards·ShardSize lines. Closed
	// exactly once, when the last line is buffered.
	lines chan []byte
	sent  int     // lines buffered so far (== trials folded into sum)
	sum   Summary // per-shard fold, merged in shard order

	mu       sync.Mutex
	phase    string
	attempts int // failed run attempts
}

func (st *shardState) setPhase(p string) {
	st.mu.Lock()
	st.phase = p
	st.mu.Unlock()
}

// runState is one sweep's execution context, created by Run and shared
// with every member loop spawned before or during it. Members joining
// mid-sweep attach to the same scheduler and wait group.
type runState struct {
	ctx    context.Context
	cancel context.CancelFunc
	cfg    Config
	sub    submitBody // every shard's submission but its range
	sched  *sched
	shards []*shardState
	wg     sync.WaitGroup
}

// Coordinator distributes one sweep over an elastic worker pool and
// merges the results. Create with New, grow or shrink the pool with
// Join (workers also leave on their own by failing liveness probes),
// run with Run (one sweep per Coordinator), observe with Metrics and
// Members from any goroutine.
type Coordinator struct {
	cfg  Config
	logf func(string, ...any)

	mu       sync.Mutex
	members  map[string]*member
	run      *runState
	inflight map[string]int
	failErr  error

	totalTrials atomic.Int64
	merged      atomic.Int64
	retries     atomic.Int64
	joins       atomic.Int64
	leaves      atomic.Int64
	resumed     atomic.Int64 // shards restored from the merged output on resume
}

// New validates the initial worker pool and returns a Coordinator. An
// empty pool is legal when workers will register later (Join); the
// sweep simply makes no progress until one does. Remaining Config
// defaults resolve at Run time (the shard-size heuristic needs the
// trial count).
func New(cfg Config) (*Coordinator, error) {
	c := &Coordinator{
		cfg:      cfg,
		members:  make(map[string]*member),
		inflight: make(map[string]int),
	}
	c.logf = func(format string, args ...any) {
		if cfg.Logf != nil {
			cfg.Logf(format, args...)
		}
	}
	for _, raw := range cfg.Workers {
		base, err := normalizeWorker(raw)
		if err != nil {
			return nil, err
		}
		if _, dup := c.members[base]; !dup {
			c.members[base] = newMember(base)
		}
	}
	return c, nil
}

// fail records the run's first fatal error and stops everything.
func (c *Coordinator) fail(cancel context.CancelFunc, err error) {
	c.mu.Lock()
	if c.failErr == nil {
		c.failErr = err
	}
	c.mu.Unlock()
	cancel()
}

// DurableOutput is what Config.Journal requires of the merged-output
// destination: appending, plus re-reading and truncating the already-
// merged prefix on resume. *os.File satisfies it; a pipe or plain
// buffer cannot resume and is rejected up front.
type DurableOutput interface {
	io.Writer
	io.ReaderAt
	io.Seeker
	Truncate(size int64) error
}

// Run executes the sweep: plan shards, dispatch them across the worker
// pool, and write the merged NDJSON — byte-identical to a
// single-machine scenario.Stream run — to out, returning the
// deterministically merged summary. Run blocks until the sweep
// completes or fails; ctx cancellation aborts it.
//
// With Config.Journal set, out must implement DurableOutput (an
// *os.File does): the journal pins the sweep, the output records its
// progress, and a Run over the same journal and output file after a
// crash — SIGKILL included — replays no shard the output holds whole,
// truncates any partial shard and torn tail, and finishes the sweep
// with final bytes identical to an uninterrupted run.
func (c *Coordinator) Run(ctx context.Context, sc scenario.Scenario, trials int, baseSeed uint64, out io.Writer) (*Summary, error) {
	sw := scenario.Sweep{Scenario: sc, Trials: trials, BaseSeed: baseSeed}
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	enc, err := scenario.Encode(sc)
	if err != nil {
		return nil, fmt.Errorf("dist: encode scenario: %w", err)
	}
	c.mu.Lock()
	if c.run != nil {
		c.mu.Unlock()
		return nil, errors.New("dist: Run may only be called once per Coordinator")
	}
	pool := c.liveMembersLocked()
	c.mu.Unlock()
	cfg := c.cfg.withDefaults(trials, pool)

	// Open the frontier journal first: its header pins the shard size a
	// previous (possibly differently-sized) pool planned with.
	var dout DurableOutput
	resume := false
	if cfg.Journal != "" {
		var ok bool
		dout, ok = out.(DurableOutput)
		if !ok {
			return nil, errors.New("dist: Config.Journal requires the output to support ReadAt/Seek/Truncate (write to a file, not a pipe)")
		}
		pin, err := sw.Pin()
		if err != nil {
			return nil, err
		}
		cfg.ShardSize, resume, err = openFrontier(cfg.Journal, pin, trials, baseSeed, cfg.ShardSize,
			func() error { return dout.Truncate(0) })
		if err != nil {
			return nil, err
		}
	}

	seq := sw.Sequence()
	plan := Plan(trials, cfg.ShardSize)
	shards := make([]*shardState, len(plan))
	for i, sh := range plan {
		shards[i] = &shardState{
			shard: sh,
			n:     seq.N,
			lines: make(chan []byte, sh.Len()),
			phase: phasePending,
		}
	}

	// Restore the shards a previous coordinator process merged: scan
	// the output, re-fold its complete shards into per-shard summaries
	// and truncate it back to their end.
	frontier, size := 0, int64(0)
	if resume {
		name := "merged output"
		if f, ok := out.(interface{ Name() string }); ok {
			name = f.Name()
		}
		frontier, size, err = restoreOutput(io.NewSectionReader(dout, 0, math.MaxInt64), name, plan, seq, shards)
		if err != nil {
			return nil, err
		}
		for i := 0; i < frontier; i++ {
			shards[i].phase = phaseDone
		}
		if err := dout.Truncate(size); err != nil {
			return nil, fmt.Errorf("dist: truncate merged output to its last complete shard: %w", err)
		}
		if frontier > 0 {
			c.resumed.Store(int64(frontier))
			c.merged.Store(int64(plan[frontier-1].Hi))
			c.logf("dist: resuming from frontier journal %s: %d/%d shards (%d trials, %d bytes) already merged",
				cfg.Journal, frontier, len(plan), plan[frontier-1].Hi, size)
		}
	}
	if dout != nil {
		if _, err := dout.Seek(size, io.SeekStart); err != nil {
			return nil, fmt.Errorf("dist: seek merged output: %w", err)
		}
	}

	run := &runState{
		cfg:    cfg,
		sub:    submitBody{Scenario: enc, Trials: trials, BaseSeed: baseSeed},
		sched:  newSched(len(plan), cfg.WindowShards, frontier),
		shards: shards,
	}
	run.ctx, run.cancel = context.WithCancel(ctx)
	defer run.cancel()

	c.mu.Lock()
	c.run = run
	for _, m := range c.members {
		if m.getState() != StateDead {
			c.startMemberLocked(run, m)
		}
	}
	c.mu.Unlock()
	c.totalTrials.Store(int64(trials))
	c.logf("dist: %d trials in %d shards of ≤%d across %d workers (window %d shards)",
		trials, len(plan), cfg.ShardSize, pool, cfg.WindowShards)

	bw := bufio.NewWriterSize(out, 64<<10)
	sum := &Summary{}
	mergeErr := c.merge(run, bw, sum, frontier)
	run.cancel()
	run.wg.Wait()

	c.mu.Lock()
	failErr := c.failErr
	c.mu.Unlock()
	switch {
	case failErr != nil:
		return nil, failErr
	case mergeErr != nil:
		return nil, mergeErr
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("dist: write merged output: %w", err)
	}
	c.logf("dist: sweep complete: %s", sum)
	return sum, nil
}

// merge is the single in-order consumer: drain shard 0's lines, then
// shard 1's, … — each shard's channel closes when its last line is
// buffered, and advancing the frontier widens the scheduler's claim
// window. Because trial indices are sweep-global and shards tile the
// sweep, the concatenation is exactly the single-machine byte stream.
// Shards below the restored frontier were already merged by a previous
// process: only their (re-folded) summaries are consumed. With a
// journal, each freshly merged shard is flushed to the output before
// the frontier advances, so a kill loses at most the shard in flight.
func (c *Coordinator) merge(run *runState, out *bufio.Writer, sum *Summary, frontier int) error {
	for i, st := range run.shards {
		if i < frontier {
			sum.merge(&st.sum)
			continue
		}
	drain:
		for {
			select {
			case line, ok := <-st.lines:
				if !ok {
					break drain
				}
				if _, err := out.Write(line); err != nil {
					err = fmt.Errorf("dist: write merged output: %w", err)
					c.fail(run.cancel, err)
					return err
				}
				c.merged.Add(1)
			case <-run.ctx.Done():
				return run.ctx.Err()
			}
		}
		sum.merge(&st.sum)
		if run.cfg.Journal != "" {
			if err := out.Flush(); err != nil {
				err = fmt.Errorf("dist: write merged output: %w", err)
				c.fail(run.cancel, err)
				return err
			}
		}
		run.sched.advance()
	}
	return nil
}

// workerLoop is one worker slot: claim the lowest runnable shard, run
// it, repeat. Once the current shard's submit succeeds, the slot
// submits its next shard ahead (submitAhead) and only then follows the
// current one, so the worker's queue already holds the next job when
// the running one ends; the next iteration follows that job without
// submitting it again. The loop parks while its member drains or is
// suspect and exits when the member dies or the sweep ends, in both
// cases first putting back an ahead shard it has not followed. A failed
// attempt is classified (classify): a permanent failure fails the
// sweep; a member fault the member's probe confirms requeues the shard
// uncharged; any other failure costs the shard an attempt. Failed
// attempts requeue the shard immediately — any worker may reclaim it —
// while a charged slot backs off exponentially with deterministic
// jitter, so a mass failure neither delays reassignment nor resubmits
// in lockstep.
func (c *Coordinator) workerLoop(ctx context.Context, run *runState, m *member, w *workerClient) {
	consecutive := 0
	ahead, aheadID := -1, "" // a submitted shard this slot has not followed yet
	fresh := true            // counted as fresh since startMemberLocked
	defer func() {
		if fresh {
			run.sched.uncount()
		}
		if ahead >= 0 {
			c.release(run, m, ahead)
		}
		run.sched.leave()
	}()
	for {
		var idx int
		var id string
		var runErr error
		if ahead >= 0 && m.getState() == StateReady {
			idx, id, ahead = ahead, aheadID, -1
		} else {
			if ahead >= 0 {
				c.release(run, m, ahead)
				ahead = -1
			}
			// A parked slot must not hold back others' ahead submits:
			// it stops counting as fresh before it can block.
			if fresh && m.getState() != StateReady {
				run.sched.uncount()
				fresh = false
			}
			if !m.waitReady(ctx) {
				return
			}
			var ok bool
			var err error
			idx, ok, err = run.sched.claim(ctx, fresh)
			fresh = false
			if err != nil || !ok {
				return
			}
			c.assign(run, m, idx)
			id, runErr = w.submit(ctx, run.shards[idx].shard)
		}
		st := run.shards[idx]
		if runErr == nil {
			ahead, aheadID = c.submitAhead(ctx, run, m, w)
			runErr = w.follow(ctx, id, st)
		}
		c.addInflight(m.base, -1)

		if runErr == nil {
			st.setPhase(phaseDone)
			run.sched.markDone()
			consecutive = 0
			continue
		}
		// The ahead shard never ran here: it goes back uncharged, and
		// the worker may still run its queued job — a later submit of
		// the shard lands on the same job id.
		if ahead >= 0 {
			c.release(run, m, ahead)
			ahead = -1
		}
		if run.ctx.Err() != nil {
			return // the whole sweep is stopping
		}
		class := classify(runErr)
		moveOn := false
		if class == memberFault && ctx.Err() == nil {
			moveOn = c.memberAtFault(ctx, run.cfg, m)
		}
		if ctx.Err() != nil {
			// Only this member was canceled (probe death), during the
			// attempt or its fault probe: rebalance the claimed shard onto
			// the live pool without charging an attempt — the shard did
			// nothing wrong.
			st.setPhase(phasePending)
			run.sched.requeue(idx)
			return
		}
		if class == permanentFault {
			c.fail(run.cancel, runErr)
			return
		}
		if moveOn {
			// The member is down, not the shard: requeue it for the live
			// pool uncharged, and park this slot until the member answers
			// a probe again (or dies).
			st.setPhase(phasePending)
			c.retries.Add(1)
			c.logf("dist: shard %s failed on %s (%v): %v — worker is suspect, shard requeued", st.shard, w.base, class, runErr)
			run.sched.requeue(idx)
			consecutive = 0
			continue
		}
		st.mu.Lock()
		st.attempts++
		attempts := st.attempts
		st.phase = phasePending
		st.mu.Unlock()
		if attempts >= run.cfg.MaxAttempts {
			c.fail(run.cancel, fmt.Errorf("dist: shard %s failed %d attempts: %w", st.shard, attempts, runErr))
			return
		}
		c.retries.Add(1)
		c.logf("dist: shard %s attempt %d failed on %s (%v): %v — requeued", st.shard, attempts, w.base, class, runErr)
		run.sched.requeue(idx)

		consecutive++
		backoff := run.cfg.Backoff << (consecutive - 1)
		if backoff > run.cfg.BackoffCap || backoff <= 0 {
			backoff = run.cfg.BackoffCap
		}
		select {
		case <-time.After(w.jit.scale(backoff)):
		case <-ctx.Done():
			return
		}
	}
}

// submitAhead claims and submits the slot's next shard while the
// current one still runs, returning its index and job id, or -1 when
// there is none: the member is not ready, a slot has not claimed its
// first shard yet or too few are left for the pool's slots (tryClaim),
// or the submit failed. A failed submit puts the shard back uncharged,
// with no retry counted and no backoff — it never ran.
func (c *Coordinator) submitAhead(ctx context.Context, run *runState, m *member, w *workerClient) (int, string) {
	if m.getState() != StateReady {
		return -1, ""
	}
	idx, ok := run.sched.tryClaim()
	if !ok {
		return -1, ""
	}
	c.assign(run, m, idx)
	id, err := w.submit(ctx, run.shards[idx].shard)
	if err != nil {
		c.logf("dist: shard %s not submitted ahead to %s: %v — requeued", run.shards[idx].shard, w.base, err)
		c.release(run, m, idx)
		return -1, ""
	}
	return idx, id
}

// assign marks a claimed shard in flight on m.
func (c *Coordinator) assign(run *runState, m *member, idx int) {
	run.shards[idx].setPhase(phaseAssigned)
	c.addInflight(m.base, 1)
}

// release undoes assign for a shard that did not run here: back to the
// pending queue, uncharged.
func (c *Coordinator) release(run *runState, m *member, idx int) {
	run.shards[idx].setPhase(phasePending)
	c.addInflight(m.base, -1)
	run.sched.requeue(idx)
}

func (c *Coordinator) addInflight(base string, d int) {
	c.mu.Lock()
	c.inflight[base] += d
	c.mu.Unlock()
}
