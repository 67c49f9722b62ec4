package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rcbcast/internal/scenario"
)

// jobRecord is the on-disk job description (job.json): enough to rebuild
// the Job after a restart — spec, scheduling state, and bookkeeping.
// Sweep is sink.Fingerprint of the job's specs, stamped by its first
// run; a later run whose specs hash differently (a build that derives
// them otherwise) fails instead of appending to another sweep's output.
// Written atomically (temp + rename) at submit and at every state
// transition, so a SIGKILL leaves at worst a stale-but-consistent
// record; a record claiming "running" simply resumes as queued.
type jobRecord struct {
	ID            string          `json:"id"`
	Client        string          `json:"client,omitempty"`
	Scenario      json.RawMessage `json:"scenario"`
	Trials        int             `json:"trials"`
	BaseSeed      uint64          `json:"base_seed"`
	Shard         scenario.Shard  `json:"shard,omitzero"`
	Sweep         string          `json:"sweep,omitempty"`
	State         State           `json:"state"`
	Done          int             `json:"done,omitempty"`
	PartialErrors int             `json:"partial_errors,omitempty"`
	Canceled      bool            `json:"canceled,omitempty"`
	Error         string          `json:"error,omitempty"`
	Version       string          `json:"version"`
}

// saveJob persists the job record atomically into its directory.
// Concurrent saves of one job share its temp file, so the job's save
// lock spans snapshot, write and rename: the last save publishes the
// latest state, whole.
func saveJob(j *Job) error {
	j.saveMu.Lock()
	defer j.saveMu.Unlock()
	rec := j.record()
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encode job record: %w", err)
	}
	data = append(data, '\n')
	tmp := j.recordPath() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("service: write job record: %w", err)
	}
	if err := os.Rename(tmp, j.recordPath()); err != nil {
		return fmt.Errorf("service: publish job record: %w", err)
	}
	return nil
}

// loadRecords scans the store root for job records, in stable (id) order
// so restart scheduling is deterministic. Directories without a
// readable record are skipped with the error reported to the caller's
// log hook rather than failing the whole store: one corrupt record must
// not take the service down.
func loadRecords(dir string, warn func(error)) ([]jobRecord, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: read store: %w", err)
	}
	var recs []jobRecord
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name(), "job.json")
		data, err := os.ReadFile(path)
		if err != nil {
			if !os.IsNotExist(err) && warn != nil {
				warn(fmt.Errorf("service: skip %s: %w", path, err))
			}
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			if warn != nil {
				warn(fmt.Errorf("service: skip %s: %w", path, err))
			}
			continue
		}
		if rec.ID != e.Name() {
			if warn != nil {
				warn(fmt.Errorf("service: skip %s: record id %q does not match its directory", path, rec.ID))
			}
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].ID < recs[b].ID })
	return recs, nil
}
