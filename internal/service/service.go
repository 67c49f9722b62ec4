// Package service is the sweep-job layer: a long-running HTTP server
// that lets many clients drive the scenario/streaming stack as jobs.
//
// A client POSTs a scenario (the same JSON internal/scenario decodes
// and validates everywhere else — nothing is scheduled before the spec
// passes the Scenario/AdversarySpec/TopologySpec validation discipline)
// plus a trial count, and gets back a job id. Jobs run on one shared
// engine pool through a bounded FIFO queue with per-client in-flight
// caps, so heavy users queue behind their own work instead of starving
// everyone else's.
//
// Durability rests on two internal/journal files (DESIGN.md §12). Each
// job's output, <id>.ndjson in the store directory, is its record
// journal, one flushed line per trial, so a killed server — SIGKILL
// included — reopens it on restart, drops at most a torn tail, and runs
// only the trials it lacks; the job's final NDJSON output is
// byte-identical to an uninterrupted run. The store journal,
// jobs.ndjson, holds one line per job transition: the line that opens
// a job pins its sweep fingerprint, so a resume never appends another
// sweep's trials; a job failed by that check reruns from trial 0 once
// its output is deleted and it is resubmitted. Live result streaming
// reads the same bytes: a subscriber attaching mid-job (or after a
// resume) reads the output from trial 0 and then follows appends, so
// every subscriber sees the one canonical byte stream.
//
// The layering is strict: service sits above scenario, sim and
// sim/sink, and below cmd/rcserved. It adds no execution semantics of
// its own — determinism, the live-result bound (≤ sim.Window(procs) per
// running job), and resume byte-identity are all inherited from the
// layers beneath and pinned end to end by this package's tests.
package service

import "time"

// Config sizes the service. The zero value of any field selects its
// default, so Config{Dir: dir} is a working single-runner service.
type Config struct {
	// Dir is the job store root: the store journal (jobs.ndjson), one
	// line per job transition, beside one flat <id>.ndjson per job, its
	// NDJSON output, which doubles as the job's resume journal. A store
	// in the older layout (a <id>/ directory per job holding job.json
	// and out.ndjson) is imported on start. Required.
	Dir string
	// Procs is the engine worker-pool size each running job uses
	// (<= 0 selects GOMAXPROCS, as everywhere in internal/sim).
	Procs int
	// Runners is the number of jobs executing concurrently (default 1).
	// Each runner drives one job's sweep at a time; the engine pool
	// parallelism lives inside the job (Procs), not here.
	Runners int
	// QueueDepth bounds the FIFO of jobs waiting for a runner
	// (default 64). Submissions beyond it are rejected with 429.
	QueueDepth int
	// PerClient caps one client's in-flight (queued + running) jobs
	// (default 4). Submissions beyond it are rejected with 429.
	PerClient int
	// MaxBody bounds a submit request's body in bytes (default 1 MiB).
	MaxBody int64
	// Logf receives operational log lines (nil discards them). Wired
	// here rather than set afterwards so restart-time resume decisions
	// are logged too.
	Logf func(format string, args ...any)
}

// Defaults, exported so cmd/rcserved's flag help states them once.
// DefaultDrainTimeout bounds graceful shutdown: running jobs are
// canceled at the next engine phase boundary, their output a valid
// prefix to resume from, within the deadline the caller passes to
// Manager.Close (cmd/rcserved's -drain flag).
const (
	DefaultRunners      = 1
	DefaultQueueDepth   = 64
	DefaultPerClient    = 4
	DefaultDrainTimeout = 10 * time.Second
	defaultMaxBody      = 1 << 20
)

// withDefaults resolves zero fields to their defaults.
func (c Config) withDefaults() Config {
	if c.Runners <= 0 {
		c.Runners = DefaultRunners
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.PerClient <= 0 {
		c.PerClient = DefaultPerClient
	}
	if c.MaxBody <= 0 {
		c.MaxBody = defaultMaxBody
	}
	return c
}
