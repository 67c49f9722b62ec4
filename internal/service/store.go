package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"rcbcast/internal/journal"
	"rcbcast/internal/scenario"
	"rcbcast/internal/sim/sink"
)

// storeFile is the store journal's name inside Config.Dir. Each job's
// output sits beside it as <id>.ndjson.
const storeFile = "jobs.ndjson"

// jobRecord is one line of the store journal. A line that carries a
// scenario opens a job: its immutable spec, the pinned sweep
// fingerprint and its state at submit. Every later line for that id is
// an update: it carries only the mutable fields (client, state, done,
// partial_errors, canceled, error) and replaces them wholesale. An
// update carries sweep only to re-pin a job whose output was deleted.
//
// Sweep is sink.Fingerprint of the job's specs, pinned at submit; a run
// whose specs hash differently (a build that derives them otherwise)
// fails instead of appending to another sweep's output. A record
// claiming "running" simply resumes as queued. The same fields decode
// the per-job job.json of the older directory layout.
type jobRecord struct {
	ID            string          `json:"id"`
	Client        string          `json:"client,omitempty"`
	Scenario      json.RawMessage `json:"scenario,omitempty"`
	Trials        int             `json:"trials,omitempty"`
	BaseSeed      uint64          `json:"base_seed,omitempty"`
	Shard         scenario.Shard  `json:"shard,omitzero"`
	Sweep         string          `json:"sweep,omitempty"`
	State         State           `json:"state"`
	Done          int             `json:"done,omitempty"`
	PartialErrors int             `json:"partial_errors,omitempty"`
	Canceled      bool            `json:"canceled,omitempty"`
	Error         string          `json:"error,omitempty"`
	Version       string          `json:"version,omitempty"`
}

// opens reports whether the line opens a job rather than updating one.
func (r *jobRecord) opens() bool { return len(r.Scenario) > 0 }

// apply replaces the record's mutable fields with an update line's.
func (r *jobRecord) apply(u *jobRecord) {
	r.Client, r.State, r.Done = u.Client, u.State, u.Done
	r.PartialErrors, r.Canceled, r.Error = u.PartialErrors, u.Canceled, u.Error
	if u.Sweep != "" {
		r.Sweep = u.Sweep
	}
}

// StoreError reports a store journal line that parses but breaks the
// record schema: an update for a job no earlier line opened, a second
// opening line for an open job, an id that is not a job id, or an
// unknown state. NewManager fails with it and leaves the journal as it
// was, since dropping the line would lose accepted work.
type StoreError struct {
	Path   string
	Line   int // 1-based
	Reason string
}

func (e *StoreError) Error() string {
	return fmt.Sprintf("service: store journal %s line %d: %s", e.Path, e.Line, e.Reason)
}

// validID reports whether id has the form jobID produces: "j" and 16
// lower-case hex digits. Ids name output files, so nothing else may
// reach a path.
func validID(id string) bool {
	if len(id) != 17 || id[0] != 'j' {
		return false
	}
	for _, c := range id[1:] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// outputPath is where job id's NDJSON output lives in the store at dir.
func outputPath(dir, id string) string { return filepath.Join(dir, id+".ndjson") }

// store is the open store journal. Appends come from submit, the
// runners and Cancel, so they serialize on mu.
type store struct {
	mu     sync.Mutex
	log    *journal.Log
	closed bool
}

// openStore replays the store journal in dir, returning one record per
// job, merged with its updates, in the order the jobs were opened. An
// unparseable line is a torn tail: it is dropped with everything after
// it, and the drop is logged. A parseable line that breaks the schema
// fails the open with a *StoreError and the file untouched.
func openStore(dir string, logf func(string, ...any)) (*store, []jobRecord, error) {
	path := filepath.Join(dir, storeFile)
	var (
		recs   []jobRecord
		byID   = make(map[string]int)
		kept   int
		reject *StoreError
	)
	lg, err := journal.Open(path, func(b []byte) (bool, error) {
		var rec jobRecord
		if json.Unmarshal(b, &rec) != nil {
			return false, nil
		}
		fail := func(format string, args ...any) (bool, error) {
			reject = &StoreError{Path: path, Line: kept + 1, Reason: fmt.Sprintf(format, args...)}
			return false, reject
		}
		if !validID(rec.ID) {
			return fail("job id %q is not j and 16 hex digits", rec.ID)
		}
		if !rec.State.valid() {
			return fail("job %s has unknown state %q", rec.ID, rec.State)
		}
		i, open := byID[rec.ID]
		switch {
		case rec.opens() && open:
			return fail("second opening line for job %s", rec.ID)
		case rec.opens():
			byID[rec.ID] = len(recs)
			recs = append(recs, rec)
		case !open:
			return fail("update for unknown job %s", rec.ID)
		case rec.Trials != 0 || rec.BaseSeed != 0 || !rec.Shard.IsZero() || rec.Version != "":
			return fail("update for job %s rewrites its spec", rec.ID)
		default:
			recs[i].apply(&rec)
		}
		kept++
		return true, nil
	})
	if err != nil {
		if reject != nil {
			return nil, nil, reject // Open returns keep's error unchanged
		}
		return nil, nil, fmt.Errorf("service: open store journal: %w", err)
	}
	if lg.Truncated() {
		logf("service: store journal %s: dropped a torn tail after line %d", path, kept)
	}
	return &store{log: lg}, recs, nil
}

// append writes the record snap returns as one journal line. snap runs
// under the store lock, so concurrent appends for one job land in the
// order of the states they capture: the job's last line is its latest
// state.
func (s *store) append(snap func() jobRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Append(snap()); err != nil {
		return fmt.Errorf("service: append to store journal: %w", err)
	}
	return nil
}

// close closes the journal once; a later append fails and is logged.
func (s *store) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.Close()
}

// pinSweep computes the fingerprint a job's run must match. Fingerprint
// hashes only the first spec, so this builds just the shard's first.
func pinSweep(sc scenario.Scenario, trials int, baseSeed uint64, sh scenario.Shard) (string, error) {
	specs, err := sc.ShardSpecs(baseSeed, 0, trials, scenario.Shard{Lo: sh.Lo, Hi: sh.Lo + 1})
	if err != nil {
		return "", err
	}
	return sink.Fingerprint(specs), nil
}

// importLegacy moves jobs of the older per-job directory layout,
// <id>/job.json beside <id>/out.ndjson, into the store journal and flat
// <id>.ndjson outputs. For each job, in order: append its opening line
// (pinning the fingerprint if the record lacks one) unless the journal
// already holds the id; rename its output; remove the directory. A
// crash between any two steps leaves a store the next import finishes.
// Unreadable records are skipped with a warning and their directories
// left alone.
func importLegacy(dir string, s *store, recs []jobRecord, logf func(string, ...any)) ([]jobRecord, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: read store: %w", err)
	}
	known := make(map[string]bool, len(recs))
	for _, r := range recs {
		known[r.ID] = true
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		jobDir := filepath.Join(dir, e.Name())
		path := filepath.Join(jobDir, "job.json")
		data, err := os.ReadFile(path)
		if err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				logf("service: skip %s: %v", path, err)
			}
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			logf("service: skip %s: %v", path, err)
			continue
		}
		if rec.ID != e.Name() || !validID(rec.ID) {
			logf("service: skip %s: record id %q does not match its directory", path, rec.ID)
			continue
		}
		if !known[rec.ID] {
			if err := pinLegacy(&rec); err != nil {
				logf("service: skip %s: %v", path, err)
				continue
			}
			if err := s.append(func() jobRecord { return rec }); err != nil {
				return nil, err
			}
			known[rec.ID] = true
			recs = append(recs, rec)
		}
		if err := os.Rename(filepath.Join(jobDir, "out.ndjson"), outputPath(dir, rec.ID)); err != nil && !errors.Is(err, os.ErrNotExist) {
			logf("service: import %s: %v", jobDir, err)
			continue
		}
		if err := os.RemoveAll(jobDir); err != nil {
			logf("service: import %s: %v", jobDir, err)
		}
		logf("service: imported job %s from %s", rec.ID, jobDir)
	}
	return recs, nil
}

// pinLegacy readies a job.json record to open its job in the store
// journal: a known state, and a pinned fingerprint (a record saved
// before its first run has none).
func pinLegacy(rec *jobRecord) error {
	if !rec.opens() {
		return errors.New("record has no scenario")
	}
	if !rec.State.valid() {
		return fmt.Errorf("unknown state %q", rec.State)
	}
	if rec.Sweep != "" {
		return nil
	}
	var sc scenario.Scenario
	if err := json.Unmarshal(rec.Scenario, &sc); err != nil {
		return fmt.Errorf("decode scenario: %w", err)
	}
	fp, err := pinSweep(sc, rec.Trials, rec.BaseSeed, rec.Shard)
	if err != nil {
		return err
	}
	rec.Sweep = fp
	return nil
}
