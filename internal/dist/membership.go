package dist

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Worker membership states, as reported by Metrics and /v1/workers.
const (
	// StateReady: the worker answers readiness probes and may claim
	// shards.
	StateReady = "ready"
	// StateDraining: the worker is alive but reports not-ready (its
	// /readyz answers 503 — a graceful shutdown in progress). The
	// shards its slots are following run to completion, a shard they
	// submitted ahead goes back to the queue, and they claim nothing
	// new until it reports ready again.
	StateDraining = "draining"
	// StateSuspect: one of the worker's shard attempts failed as a
	// member fault (classify) and the probe that followed went
	// unanswered. Its slots claim nothing until a probe succeeds again
	// (back to ready or draining) or the liveness deadline passes
	// (dead).
	StateSuspect = "suspect"
	// StateDead: the worker missed its liveness deadline (or was
	// removed). Its slots are gone and its in-flight shards were
	// requeued onto the live pool. A dead worker rejoins only by
	// registering again.
	StateDead = "dead"
)

// member is one worker's membership record. Its state is written by
// the probe loop and by leave, and read by the worker loops (gating
// claims) and Metrics; watch is closed and replaced on every state
// change so waiters never poll.
type member struct {
	base string

	mu     sync.Mutex
	state  string
	watch  chan struct{}
	cancel context.CancelFunc // cancels the member's loops; set at start
}

func newMember(base string) *member {
	return &member{base: base, state: StateReady, watch: make(chan struct{})}
}

// setState transitions the member, returning whether anything changed.
// Dead is terminal: a revived worker gets a fresh member via Join.
func (m *member) setState(s string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == StateDead || m.state == s {
		return false
	}
	m.state = s
	close(m.watch)
	m.watch = make(chan struct{})
	return true
}

func (m *member) getState() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

func (m *member) setCancel(cancel context.CancelFunc) {
	m.mu.Lock()
	m.cancel = cancel
	m.mu.Unlock()
}

func (m *member) abort() {
	m.mu.Lock()
	cancel := m.cancel
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// waitReady blocks while the member is draining and returns true once
// it is ready; false means the member died or ctx was canceled.
func (m *member) waitReady(ctx context.Context) bool {
	for {
		m.mu.Lock()
		s, w := m.state, m.watch
		m.mu.Unlock()
		switch s {
		case StateReady:
			return true
		case StateDead:
			return false
		}
		select {
		case <-w:
		case <-ctx.Done():
			return false
		}
	}
}

// Join adds a worker to the pool — before Run (pre-seeding the pool,
// what Config.Workers does) or mid-sweep (the registration endpoint).
// Joining during a run spawns the worker's probe and claim loops
// immediately, so pending shards rebalance onto it with no further
// coordination: every slot pulls from the one shared scheduler.
// Re-joining a live worker is a no-op; re-joining a dead one revives
// it with a fresh membership record. Returns whether the pool changed.
func (c *Coordinator) Join(raw string) (bool, error) {
	base, err := normalizeWorker(raw)
	if err != nil {
		return false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.members[base]; ok && m.getState() != StateDead {
		return false, nil
	}
	m := newMember(base)
	c.members[base] = m
	c.joins.Add(1)
	c.logf("dist: worker %s joined the pool", base)
	if c.run != nil && c.run.ctx.Err() == nil {
		c.startMemberLocked(c.run, m)
	}
	return true, nil
}

// leave declares a worker dead: its loops are canceled, which aborts
// its in-flight attempts — each aborted shard requeues immediately
// (without burning an attempt) so the live pool rebalances at once
// instead of waiting out a stall timeout.
func (c *Coordinator) leave(m *member, reason string) {
	if !m.setState(StateDead) {
		return
	}
	c.leaves.Add(1)
	c.logf("dist: worker %s left the pool (%s) — rebalancing its shards", m.base, reason)
	m.abort()
}

// startMemberLocked spawns a member's probe loop and PerWorker claim
// loops under a per-member context — the cancellation scope that lets
// one worker's death abort exactly its own work. Callers hold c.mu.
func (c *Coordinator) startMemberLocked(run *runState, m *member) {
	mctx, cancel := context.WithCancel(run.ctx)
	m.setCancel(cancel)
	run.wg.Add(1 + run.cfg.PerWorker)
	run.sched.expect(run.cfg.PerWorker)
	go func() {
		defer run.wg.Done()
		c.probeLoop(mctx, run.cfg, m)
	}()
	for i := 0; i < run.cfg.PerWorker; i++ {
		w := &workerClient{
			base:  m.base,
			http:  run.cfg.Client,
			sub:   run.sub,
			stall: run.cfg.StallTimeout,
			jit:   newJitter(run.cfg.JitterSeed, m.base, i),
		}
		go func() {
			defer run.wg.Done()
			c.workerLoop(mctx, run, m, w)
		}()
	}
}

// Probe outcomes.
type probeResult int

const (
	probeReady probeResult = iota
	probeDraining
	probeFailed
)

// probeWorker issues one readiness probe. 200 means ready; 404 means a
// legacy worker without /readyz, treated as ready (liveness is all its
// answer proves); 503 means alive-but-draining; anything else — network
// errors and 5xx alike — is a failure that counts against the liveness
// deadline.
func probeWorker(ctx context.Context, client *http.Client, base string, timeout time.Duration) probeResult {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return probeFailed
	}
	resp, err := client.Do(req)
	if err != nil {
		return probeFailed
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNotFound:
		return probeReady
	case http.StatusServiceUnavailable:
		return probeDraining
	default:
		return probeFailed
	}
}

// memberAtFault settles a member fault on m and reports whether the
// failed shard should move on uncharged. m turns suspect — its slots
// stop claiming — and is probed at once. An answer (ready or draining)
// proves the member alive, so the failure counts against the shard
// after all. No answer confirms the member at fault: it stays suspect
// for the probe loop to revive or declare dead, and the shard is
// requeued without an attempt — unless no other member is ready to take
// it. Then the failure is charged and m keeps claiming, so a pool that
// is down entirely still fails after MaxAttempts instead of waiting
// forever.
func (c *Coordinator) memberAtFault(ctx context.Context, cfg Config, m *member) bool {
	m.setState(StateSuspect)
	switch probeWorker(ctx, cfg.Client, m.base, cfg.ProbeTimeout) {
	case probeReady:
		m.setState(StateReady)
		return false
	case probeDraining:
		m.setState(StateDraining)
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, o := range c.members {
		if o != m && o.getState() == StateReady {
			return true
		}
	}
	m.setState(StateReady)
	return false
}

// probeLoop is a member's health monitor: probe every ProbeInterval,
// track the last success, and declare the worker dead once no probe
// has succeeded for LivenessDeadline — the replacement for discovering
// death only when a result stream stalls. A draining answer keeps the
// worker alive but parks its claim loops; recovery flips it back to
// ready automatically.
func (c *Coordinator) probeLoop(ctx context.Context, cfg Config, m *member) {
	lastOK := time.Now()
	t := time.NewTicker(cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		switch probeWorker(ctx, cfg.Client, m.base, cfg.ProbeTimeout) {
		case probeReady:
			lastOK = time.Now()
			if m.setState(StateReady) {
				c.logf("dist: worker %s is ready", m.base)
			}
		case probeDraining:
			lastOK = time.Now()
			if m.setState(StateDraining) {
				c.logf("dist: worker %s is draining — routing no new shards to it", m.base)
			}
		case probeFailed:
			if silent := time.Since(lastOK); silent > cfg.LivenessDeadline {
				c.leave(m, fmt.Sprintf("no successful probe for %v", silent.Round(time.Millisecond)))
				return
			}
		}
	}
}

// Members snapshots the pool: worker base URL → membership state.
func (c *Coordinator) Members() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.members))
	for base, m := range c.members {
		out[base] = m.getState()
	}
	return out
}

// liveMembersLocked counts non-dead members; callers hold c.mu.
func (c *Coordinator) liveMembersLocked() int {
	n := 0
	for _, m := range c.members {
		if m.getState() != StateDead {
			n++
		}
	}
	return n
}
