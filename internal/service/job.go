package service

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"rcbcast/internal/engine"
	"rcbcast/internal/scenario"
	"rcbcast/internal/sim/sink"
)

// State is a job's lifecycle position. Transitions:
//
//	queued → running → done
//	                 → failed            (a trial or sink error)
//	                 → canceled          (client cancel)
//	                 → queued            (graceful shutdown: requeued,
//	                                      resumed from the journal on
//	                                      the next start)
//	queued → canceled                    (cancel before a runner claims it)
//
// done, failed and canceled are terminal for scheduling, but failed and
// canceled jobs can be resubmitted: the journal holds their delivered
// prefix, so a resubmit resumes rather than restarts.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether no runner currently owns or will claim the
// job.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// valid reports whether s is one of the lifecycle states.
func (s State) valid() bool { return s == StateQueued || s == StateRunning || s.terminal() }

// Job is one submitted sweep: an immutable spec plus scheduling state.
// The spec fields are never mutated after submit; the state fields are
// guarded by mu, and the progress counters are atomics so status
// queries never contend with delivery.
type Job struct {
	// ID is the sweep's store key (scenario.Sweep.Key). Resubmitting
	// the same sweep yields the same id — and therefore the same output
	// — which is what makes submit idempotent and resume automatic.
	ID string
	// Client is the submitting client's identity (limiter key).
	Client string
	// Sweep is the validated spec. A shard job (the worker half of
	// internal/dist's split) keeps sweep-global seeds and trial numbers,
	// so its output is byte-for-byte the shard's slice of the sweep's.
	scenario.Sweep
	// Version stamps the build that accepted the job (internal/version).
	Version string

	out  string // the NDJSON output, <Dir>/<id>.ndjson, also the resume journal
	feed *feed

	mu        sync.Mutex
	sweep     string // the Sweep's Pin, pinned at submit
	state     State
	errMsg    string
	partials  int // run attempts that ended in a *sim.PartialError
	canceled  bool
	cancelRun func() // non-nil while running

	done      atomic.Int64 // trials delivered to sinks (sweep coordinates)
	execBase  atomic.Int64 // trials already in the output when this run started
	execStart atomic.Int64 // unixnano of the first executed delivery this run
}

// Status is the wire form of a job's state — the status endpoint's
// response body and one element of the list endpoint's.
type Status struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Client   string `json:"client,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Trials   int    `json:"trials"`
	// Shard is the job's trial range when it runs one shard of the
	// sweep; absent for whole-sweep jobs. Done counts the job's own
	// (shard) trials, so done == hi-lo means a shard job is complete.
	Shard         scenario.Shard `json:"shard,omitzero"`
	Done          int            `json:"done"`
	TrialsPerSec  float64        `json:"trials_per_sec,omitempty"`
	ETASeconds    float64        `json:"eta_seconds,omitempty"`
	PartialErrors int            `json:"partial_errors,omitempty"`
	Canceled      bool           `json:"canceled,omitempty"`
	Error         string         `json:"error,omitempty"`
	Version       string         `json:"version"`
}

// Status snapshots the job. Rate covers only trials executed in the
// current run (a resume's kept prefix took no time in it), measured
// from the run's first delivery.
func (j *Job) Status() Status {
	j.mu.Lock()
	st := Status{
		ID:            j.ID,
		State:         j.state,
		Client:        j.Client,
		Scenario:      j.Scenario.Name,
		Trials:        j.Trials,
		PartialErrors: j.partials,
		Canceled:      j.canceled,
		Error:         j.errMsg,
		Version:       j.Version,
	}
	j.mu.Unlock()
	st.Shard = j.Shard
	st.Done = int(j.done.Load())
	if st.State == StateRunning {
		if startNs := j.execStart.Load(); startNs != 0 {
			executed := st.Done - int(j.execBase.Load())
			rate := sink.Rate(executed, time.Unix(0, startNs), time.Now())
			if rate > 0 {
				st.TrialsPerSec = rate
				st.ETASeconds = sink.ETA(st.Done, j.Len(), rate).Seconds()
			}
		}
	}
	return st
}

// meterSink plumbs delivery progress into the job's atomics: done is
// the count of the job's own trials delivered (indices arrive in sweep
// coordinates, so shard jobs rebase by lo), and the run's first
// delivery starts the rate clock.
type meterSink struct {
	j  *Job
	lo int
}

func (m meterSink) Trial(i int, _ *engine.Result) error {
	j := m.j
	count := int64(i - m.lo + 1)
	j.done.Store(count)
	if j.execStart.Load() == 0 {
		j.execStart.Store(time.Now().UnixNano())
	}
	return nil
}

func (m meterSink) Flush() error { return nil }

// update is the job's mutable state as a store journal line (store.go).
func (j *Job) update() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobRecord{
		ID:            j.ID,
		Client:        j.Client,
		State:         j.state,
		Done:          int(j.done.Load()),
		PartialErrors: j.partials,
		Canceled:      j.canceled,
		Error:         j.errMsg,
	}
}

// opening is the store journal line that opens the job: its update
// plus the immutable spec and the pinned fingerprint.
func (j *Job) opening() jobRecord {
	rec := j.update()
	rec.Scenario, _ = json.Marshal(j.Scenario)
	rec.Trials = j.Trials
	rec.BaseSeed = j.BaseSeed
	rec.Shard = j.Shard
	rec.Version = j.Version
	j.mu.Lock()
	rec.Sweep = j.sweep
	j.mu.Unlock()
	return rec
}
