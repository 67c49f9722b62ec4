package sink

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcbcast/internal/engine"
)

// recordLines renders n-node records for the given trial indices with
// the NDJSON sink, exactly as a sweep writes its output.
func recordLines(n int, trials ...int) []byte {
	var buf bytes.Buffer
	s := NewNDJSON(&buf)
	for _, i := range trials {
		s.Trial(i, &engine.Result{N: n, Informed: n - 1, Rounds: 3 + i, SlotsSimulated: int64(100 * i), StrategyName: "full"})
	}
	return buf.Bytes()
}

// oldCheckpoint returns a full-Result Checkpoint journal of the first
// trials of a 16-node jamSpecs sweep — the format rcexp -checkpoint
// wrote before record journals — and the sweep's fingerprint.
func oldCheckpoint(tb testing.TB, trials int) (data []byte, pin string) {
	specs := jamSpecs(16, trials)
	path := filepath.Join(tb.TempDir(), "old.ckpt")
	cp, err := OpenCheckpoint(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := StreamCheckpointedShard(context.Background(), 1, 0, 0, specs, cp); err != nil {
		tb.Fatal(err)
	}
	cp.Close()
	if data, err = os.ReadFile(path); err != nil {
		tb.Fatal(err)
	}
	return data, Fingerprint(specs[0], nil)
}

// FuzzOpenRecords pins OpenRecords' contract on arbitrary file bytes,
// for a journal of trials [2, 5) of a 16-node sweep opened both without
// a pin (a service job's output) and with one (rcexp -checkpoint): it
// never panics, and it either fails with a typed error and the file
// byte-for-byte untouched, or keeps a newline-terminated prefix — the
// pin line when pinned, then exactly the sweep's records 2, 3, … in
// order — stopping only at a line ParseRecord rejects or a
// newline-less tail. A pinned open of a file without a complete pin
// line keeps no record and starts the file over with the pin.
func FuzzOpenRecords(f *testing.F) {
	const lo, n, total = 2, 16, 3
	seq := Sequence{Lo: lo, Hi: lo + total, N: n}
	old, pin := oldCheckpoint(f, 3)
	pinLine := []byte(`{"sweep":"` + pin + `"}` + "\n")
	whole := recordLines(n, 2, 3, 4)
	f.Add(whole)
	f.Add(recordLines(n, 2, 3))
	f.Add([]byte{})
	f.Add(whole[:len(whole)-7])                                             // torn tail
	f.Add(append(recordLines(n, 2), "not a record\n"...))                   // corrupt line
	f.Add(append(recordLines(n, 2, 3), `{"trial":4,"n":16,"informed":`...)) // torn record
	f.Add(recordLines(n, 2, 4))                                             // out of order
	f.Add(recordLines(n, 0, 1, 2))                                          // whole-sweep file
	f.Add(recordLines(32, 2, 3))                                            // foreign n
	f.Add(recordLines(n, 2, 3, 4, 5))                                       // overlong
	f.Add(append(whole, whole[:9]...))                                      // overlong, torn
	f.Add(append(pinLine, whole...))                                        // pinned journal
	f.Add(old)                                                              // full-Result checkpoint

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range []string{"", pin} {
			path := filepath.Join(t.TempDir(), "records.ndjson")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			lg, done, size, err := OpenRecords(path, p, seq)
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if err != nil {
				var je *JournalError
				if !errors.As(err, &je) {
					t.Fatalf("pin %q: open failed with an untyped error: %v", p, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("pin %q: failed open (%v) modified the file", p, err)
				}
				continue
			}
			lg.Close()
			kept := got // the prefix of data the open kept
			body := got // the kept records
			if p != "" {
				first, _, _ := bytes.Cut(got, []byte("\n"))
				var h journalHeader
				switch {
				case bytes.HasPrefix(data, got) && json.Unmarshal(first, &h) == nil && h.Sweep == p:
				case bytes.Equal(got, pinLine) && done == 0:
					kept = nil
				default:
					t.Fatalf("pinned open kept %q, which does not start with the pin", got)
				}
				body = got[len(first)+1:]
			}
			if !bytes.HasPrefix(data, kept) || int64(len(body)) != size {
				t.Fatalf("pin %q: kept %d record bytes (size %d), not a prefix of the %d-byte file", p, len(body), size, len(data))
			}
			if len(body) > 0 && body[len(body)-1] != '\n' {
				t.Fatal("kept prefix is not newline-terminated")
			}
			records := 0
			for line := range bytes.Lines(body) {
				var rec Record
				if err := ParseRecord(line, &rec); err != nil {
					t.Fatalf("kept line %d does not parse: %v", records, err)
				}
				if rec.Trial != lo+records || rec.N != n {
					t.Fatalf("kept line %d is trial %d n=%d, want trial %d n=%d", records, rec.Trial, rec.N, lo+records, n)
				}
				records++
			}
			if records != done || done > total {
				t.Fatalf("kept %d lines, reported done=%d of %d", records, done, total)
			}
			rest := data[len(kept):]
			if k := bytes.IndexByte(rest, '\n'); k >= 0 {
				var rec Record
				if ParseRecord(rest[:k+1], &rec) == nil {
					t.Fatalf("pin %q: truncated a parseable line instead of failing the open", p)
				}
			}
		}
	})
}

// TestOpenRecordsRefusesForeignFiles: a journal another sweep wrote,
// and a full-Result checkpoint, fail the open with a typed error that
// names the cause, and the file keeps every byte.
func TestOpenRecordsRefusesForeignFiles(t *testing.T) {
	old, pin := oldCheckpoint(t, 2)
	seq := Sequence{Lo: 0, Hi: 2, N: 16}
	pinned := func(lines []byte) []byte {
		return append([]byte(`{"sweep":"`+pin+`"}`+"\n"), lines...)
	}
	for _, tc := range []struct {
		name, pin string
		data      []byte
		old       bool
		cause     string
	}{
		{"old checkpoint", pin, old, true, "full-Result"},
		{"old checkpoint, unpinned open", "", old[bytes.IndexByte(old, '\n')+1:], true, "full-Result"},
		{"old checkpoint under another pin", "0123456789abcdef", old, true, "full-Result"},
		{"other pin", "0123456789abcdef", pinned(recordLines(16, 0)), false, "pin " + pin},
		{"records without a pin", pin, recordLines(16, 0), false, "where the pin belongs"},
		{"other n", pin, pinned(recordLines(32, 0)), false, "with n=32"},
		{"other trial", pin, pinned(recordLines(16, 1)), false, "trial 1"},
		{"past the end", pin, pinned(recordLines(16, 0, 1, 2)), false, "past trials [0,2)"},
	} {
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := OpenRecords(path, tc.pin, seq)
		var je *JournalError
		if !errors.As(err, &je) || errors.Is(err, ErrOldCheckpoint) != tc.old || errors.Is(err, ErrForeignSweep) == tc.old {
			t.Fatalf("%s: err = %v (%T)", tc.name, err, err)
		}
		if !strings.Contains(err.Error(), tc.cause) {
			t.Fatalf("%s: %q does not name the cause %q", tc.name, err, tc.cause)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, tc.data) {
			t.Fatalf("%s: the refused file changed", tc.name)
		}
	}
}

// TestReplayRecordsRendersKeptRecords: a pinned journal's kept records
// replay through the NDJSON sink to the journal's own bytes, and
// through the CSV sink to what the CSV sink prints for the same trials.
func TestReplayRecordsRendersKeptRecords(t *testing.T) {
	specs := jamSpecs(16, 3)
	seq := Sequence{Lo: 0, Hi: 3, N: 16}
	path := filepath.Join(t.TempDir(), "journal")
	lg, done, _, err := OpenRecords(path, Fingerprint(specs[0], nil), seq)
	if err != nil || done != 0 {
		t.Fatalf("fresh open: done %d, err %v", done, err)
	}
	var wantJSON, wantCSV bytes.Buffer
	mustStream(t, 1, specs, NewNDJSON(lg), NewNDJSON(&wantJSON), NewCSV(&wantCSV))
	lg.Close()

	lg, done, size, err := OpenRecords(path, Fingerprint(specs[0], nil), seq)
	if err != nil || done != 3 || size != int64(wantJSON.Len()) {
		t.Fatalf("reopen: done %d, size %d, err %v; want 3 and %d", done, size, err, wantJSON.Len())
	}
	lg.Close()
	var gotJSON, gotCSV bytes.Buffer
	csv := NewCSV(&gotCSV)
	if err := ReplayRecords(path, done, NewNDJSON(&gotJSON)); err != nil {
		t.Fatal(err)
	}
	if err := ReplayRecords(path, done, csv); err != nil {
		t.Fatal(err)
	}
	csv.Flush()
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) || !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		t.Fatalf("replay differs:\n%s\nvs\n%s\n%s\nvs\n%s", gotJSON.String(), wantJSON.String(), gotCSV.String(), wantCSV.String())
	}
}
