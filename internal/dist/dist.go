// Package dist distributes one Monte-Carlo sweep across a pool of job
// workers and reassembles the results deterministically.
//
// The split is the one the seeding discipline was built for: trial t of
// a sweep runs with sim.SweepSeed(base, point, t), so any contiguous
// range of trials is independently computable with results identical to
// a single-machine run. The coordinator cuts the sweep into contiguous
// shards (scenario.Shard), dispatches each shard as a job to a worker —
// a stock rcserved extended to accept a shard range in its submission —
// and streams every shard's NDJSON back over the service's
// replay-then-follow feed.
//
// Reassembly mirrors sim.Stream's reorder-window design one level up:
// shards may complete in any order, but a bounded window of them
// (Config.WindowShards, the shard-granularity analogue of sim.Window's
// ticket semaphore) is buffered while a single merge goroutine emits
// them strictly in shard order. Trial indices in the output are
// sweep-global, so the merged NDJSON is byte-for-byte the concatenation
// of the shards' slices — which is byte-for-byte the single-machine
// run. Per-shard stats.Acc folds merge in the same fixed shard order,
// so the summary is deterministic for any worker count and any
// completion interleaving.
//
// Failure handling composes three existing mechanisms rather than
// inventing new ones: worker jobs are idempotent (same shard → same job
// id → same journal), the result feed replays from byte zero on
// reattach, and the journal survives SIGKILL. A shard whose stream
// stalls or errors is requeued — any worker may claim it — and the next
// attempt's replayed prefix is skipped line-for-line, so a retried
// shard contributes each trial exactly once. A reassigned shard resumes
// from the dead worker's journal when the workers share a store, and
// recomputes identically (same seeds) when they do not.
//
// The worker pool is elastic (membership.go): workers Join before or
// during a sweep, periodic readiness probes with a liveness deadline
// detect death without waiting for a stream to stall, a draining worker
// keeps its in-flight shards but claims no new ones, and a dead
// member's shards rebalance onto the live pool at once. The coordinator
// itself is durable when Config.Journal is set (frontier.go): the
// journal pins the sweep and the merged output is the progress record,
// so a SIGKILLed coordinator restarts, keeps the output's complete
// shards, replays only the rest, and still emits byte-identical merged
// output.
package dist

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Defaults, exported so cmd/rccoordd's flag help states them once.
const (
	// DefaultPerWorker is the number of shards a worker's slots stream
	// at once. One matches the worker service's single-runner default.
	// Each slot also keeps one shard submitted ahead in the worker's
	// queue, so the runner starts the next job the moment the current
	// one ends; queue time is not charged to the stall clock, which
	// starts when the slot follows the job.
	DefaultPerWorker = 1
	// DefaultMaxAttempts bounds one shard's run attempts before the
	// sweep fails — generous enough to ride out a worker death plus a
	// few reassignment races.
	DefaultMaxAttempts = 8
	// DefaultStallTimeout bounds the silence on one shard's result
	// stream (covering worker-side queue wait plus the slowest
	// inter-trial gap) before the attempt is abandoned and the shard
	// requeued.
	DefaultStallTimeout = 30 * time.Second
	// DefaultBackoff is the first retry delay; it doubles per
	// consecutive failure up to DefaultBackoffCap. Each delay is then
	// scaled by deterministic per-slot jitter in [0.5, 1.0).
	DefaultBackoff    = 250 * time.Millisecond
	DefaultBackoffCap = 5 * time.Second
	// DefaultProbeInterval / DefaultProbeTimeout pace the membership
	// readiness probes; DefaultLivenessDeadline is how long a worker may
	// go without a successful probe before it is declared dead and its
	// shards rebalance onto the live pool.
	DefaultProbeInterval    = 2 * time.Second
	DefaultProbeTimeout     = 1 * time.Second
	DefaultLivenessDeadline = 10 * time.Second
)

// Config parameterizes a Coordinator. Every field's zero value is
// usable; withDefaults resolves them. Even Workers may be empty: the
// pool is elastic, and workers registered later via Coordinator.Join
// pick up the sweep mid-flight.
type Config struct {
	// Workers seeds the worker pool with service base URLs (e.g.
	// "http://10.0.0.7:8080"), order-insignificant. More may Join (and
	// members may die) at any time; an empty initial pool simply makes
	// no progress until someone registers.
	Workers []string
	// ShardSize is the trial count per shard (the last shard may be
	// smaller). Zero picks ceil(trials / (4·workers·PerWorker)) — four
	// waves per worker slot, enough granularity that losing a worker
	// forfeits at most ~a quarter of one slot's work — clamped to at
	// least 1.
	ShardSize int
	// WindowShards bounds how far past the merge frontier a shard may
	// be claimed — the shard-granularity reorder window, mirroring
	// sim.Window. Zero picks 4·workers·PerWorker. Peak buffered memory
	// is WindowShards · ShardSize result lines.
	WindowShards int
	// PerWorker is the number of slots per worker: shards it streams
	// at once (default DefaultPerWorker). Each slot submits its next
	// shard ahead while it follows the current one, so up to
	// 2·PerWorker shards are in flight per worker, PerWorker of them
	// submitted ahead; near a sweep's end, with no more shards left
	// than slots, nothing runs ahead. An ahead submit the worker
	// refuses (the per-client cap, say) just leaves the shard pending.
	PerWorker int
	// MaxAttempts bounds one shard's charged run attempts (default
	// DefaultMaxAttempts). A failure on a member its probe then finds
	// down is not charged while another member is ready (classify).
	MaxAttempts int
	// StallTimeout abandons a shard attempt whose result stream goes
	// silent this long (default DefaultStallTimeout).
	StallTimeout time.Duration
	// Backoff is a worker's first retry delay after a failed attempt,
	// doubling per consecutive failure up to BackoffCap (defaults
	// DefaultBackoff, DefaultBackoffCap). The shard itself requeues
	// immediately — backoff throttles the failing worker, not the
	// shard, so a healthy worker reassigns it without waiting.
	Backoff    time.Duration
	BackoffCap time.Duration
	// ProbeInterval paces each member's readiness probes (GET /readyz;
	// default DefaultProbeInterval), each bounded by ProbeTimeout
	// (default DefaultProbeTimeout). A worker with no successful probe
	// for LivenessDeadline (default DefaultLivenessDeadline) is declared
	// dead: its in-flight shards requeue immediately instead of waiting
	// out StallTimeout.
	ProbeInterval    time.Duration
	ProbeTimeout     time.Duration
	LivenessDeadline time.Duration
	// JitterSeed seeds the deterministic backoff jitter (zero is a valid
	// seed; set it explicitly in tests to pin delays).
	JitterSeed uint64
	// Journal, when non-empty, is the coordinator's frontier-journal
	// path: a one-line header pinning the sweep (fingerprint, trials,
	// seed, shard size), written when the file is created. The merged
	// output itself records progress, flushed once per merged shard, so
	// a restarted Run over the same journal and output file resumes the
	// sweep from the output's last complete shard instead of starting
	// over. Requires the output passed to Run to implement
	// DurableOutput (an *os.File does).
	Journal string
	// Client issues the HTTP requests (default http.DefaultClient).
	Client *http.Client
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// withDefaults resolves zero fields. trials feeds the shard-size
// heuristic; workers is the live pool size at Run time (clamped to ≥1
// so an initially-empty elastic pool still yields a sane plan).
func (c Config) withDefaults(trials, workers int) Config {
	if c.PerWorker <= 0 {
		c.PerWorker = DefaultPerWorker
	}
	if workers < 1 {
		workers = 1
	}
	slots := workers * c.PerWorker
	if c.ShardSize <= 0 {
		c.ShardSize = (trials + 4*slots - 1) / (4 * slots)
		if c.ShardSize < 1 {
			c.ShardSize = 1
		}
	}
	if c.WindowShards <= 0 {
		c.WindowShards = 4 * slots
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = DefaultStallTimeout
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultBackoff
	}
	if c.BackoffCap < c.Backoff {
		c.BackoffCap = DefaultBackoffCap
		if c.BackoffCap < c.Backoff {
			c.BackoffCap = c.Backoff
		}
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = DefaultProbeTimeout
	}
	if c.LivenessDeadline <= 0 {
		c.LivenessDeadline = DefaultLivenessDeadline
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	return c
}

// normalizeWorker validates one worker base URL and strips its trailing
// slash so path joins are uniform.
func normalizeWorker(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("dist: worker url %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("dist: worker url %q: scheme must be http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("dist: worker url %q: missing host", raw)
	}
	return strings.TrimRight(u.String(), "/"), nil
}
