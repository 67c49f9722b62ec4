package sink

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"rcbcast/internal/journal"
)

// Sequence is the one record-sequence rule (record journals, merged
// outputs, worker streams): trials [Lo, Hi) of an N-node sweep, in order.
type Sequence struct{ Lo, Hi, N int }

// Check reports whether rec may follow done records: trial Lo+done of
// an N-node sweep, before Hi.
func (s Sequence) Check(rec *Record, done int) error {
	switch want := s.Lo + done; {
	case want >= s.Hi:
		return fmt.Errorf("record for trial %d runs past trials [%d,%d)", rec.Trial, s.Lo, s.Hi)
	case rec.Trial != want || rec.N != s.N:
		return fmt.Errorf("record is trial %d with n=%d where trial %d with n=%d belongs", rec.Trial, rec.N, want, s.N)
	}
	return nil
}

// ErrOldCheckpoint is the JournalError cause for a full-Result
// Checkpoint journal, what rcexp -checkpoint kept before record journals.
var ErrOldCheckpoint = errors.New("a full-Result checkpoint journal, the format before record journals: delete it to restart the sweep")

// ErrForeignSweep is the JournalError cause for a file pinned to, or
// holding the records of, another sweep or shard (Foreign).
var ErrForeignSweep = errors.New("written by a different sweep or shard")

// JournalError reports a durable file an opener refused and left
// untouched. Err is ErrOldCheckpoint or wraps ErrForeignSweep; Line is
// 1-based, or 0 when the whole file is refused.
type JournalError struct {
	Path string
	Line int
	Err  error
}

func (e *JournalError) Error() string {
	if e.Line == 0 {
		return fmt.Sprintf("sink: %s: %v", e.Path, e.Err)
	}
	return fmt.Sprintf("sink: %s:%d: %v", e.Path, e.Line, e.Err)
}

func (e *JournalError) Unwrap() error { return e.Err }

// Foreign is the one error for a file that belongs to another sweep or
// shard: a *JournalError wrapping ErrForeignSweep, with the detail
// (for a pin mismatch, both pins) formatted in.
func Foreign(path string, line int, format string, args ...any) error {
	err := fmt.Errorf("%w ("+format+"): delete it or rerun with the original flags", append([]any{ErrForeignSweep}, args...)...)
	return &JournalError{path, line, err}
}

// OpenRecords opens (or creates) the record journal at path, a sweep's
// NDJSON records for the trials seq covers, positioned for append. With
// pin set, the first line must be the sweep pin {"sweep":pin} (a
// Fingerprint); a file without a complete one starts over with it. A
// line ParseRecord rejects is a torn or corrupt tail and is truncated;
// another pin, a record seq rejects, or a full-Result checkpoint line
// fails with a *JournalError and the file untouched. done and size
// count the kept records and their bytes, the pin excluded.
func OpenRecords(path, pin string, seq Sequence) (lg *journal.Log, done int, size int64, err error) {
	var rec Record
	line, pinned := 0, pin == ""
	lg, err = journal.Open(path, func(b []byte) (bool, error) {
		line++
		var h journalHeader
		switch {
		case !pinned && json.Unmarshal(b, &h) == nil && h.Sweep != "":
			if pinned = h.Sweep == pin; !pinned {
				// An older rcexp's checkpoint of this very sweep has another
				// pin too: name its format, the more useful cause.
				if checkpointAt(path, int64(len(b))) {
					return false, &JournalError{path, line + 1, ErrOldCheckpoint}
				}
				return false, Foreign(path, line, "pin %s, this sweep %s", h.Sweep, pin)
			}
			return true, nil
		case ParseRecord(b, &rec) != nil:
			if checkpointLine(b) {
				return false, &JournalError{path, line, ErrOldCheckpoint}
			}
			return false, nil
		case !pinned:
			return false, Foreign(path, line, "a record where the pin belongs")
		}
		if err := seq.Check(&rec, done); err != nil {
			return false, Foreign(path, line, "%w", err)
		}
		done++
		size += int64(len(b))
		return true, nil
	})
	if err == nil && !pinned {
		if err = lg.Append(journalHeader{Sweep: pin}); err != nil {
			lg.Close()
		}
	}
	return lg, done, size, err
}

// checkpointLine reports whether b starts like a full-Result
// Checkpoint journal line.
func checkpointLine(b []byte) bool {
	d := lineDecoder{b: b}
	d.int(`{"trial":`, 64)
	return d.lit(`,"result":`)
}

// checkpointAt reports whether the line at byte off of the file at
// path starts like a full-Result Checkpoint journal line.
func checkpointAt(path string, off int64) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var b [48]byte // the longest trial number fits
	n, _ := f.ReadAt(b[:], off)
	return checkpointLine(b[:n])
}

// RecordWriter renders a Record directly, as the NDJSON and CSV sinks
// do for each trial, so a record journal's kept lines print again.
type RecordWriter interface{ WriteRecord(rec *Record) error }

// ReplayRecords renders the first done records of the pinned record
// journal at path to out: the trials a resumed sweep kept.
func ReplayRecords(path string, done int, out RecordWriter) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	_, err = br.ReadBytes('\n') // the pin
	var rec Record
	for ; done > 0 && err == nil; done-- {
		var line []byte
		if line, err = br.ReadBytes('\n'); err == nil {
			if err = ParseRecord(line, &rec); err == nil {
				err = out.WriteRecord(&rec)
			}
		}
	}
	if err != nil {
		return fmt.Errorf("sink: replay %s: %w", path, err)
	}
	return nil
}
