package dist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFrontierJournalRoundTrip pins the journal's basic lifecycle:
// record shard boundaries, reopen, and recover exactly them.
func TestFrontierJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frontier")
	fj, err := openFrontier(path, "abcd", 100, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fj.merged != 0 || fj.bytes != 0 {
		t.Fatalf("fresh journal at %d/%d", fj.merged, fj.bytes)
	}
	for i, b := range []int64{120, 260, 390} {
		if err := fj.record(i, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := fj.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := openFrontier(path, "abcd", 100, 7, 999) // caller's shard size is overridden
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.merged != 3 || re.bytes != 390 {
		t.Fatalf("reopened journal at %d/%d, want 3/390", re.merged, re.bytes)
	}
	if re.shardSize != 10 {
		t.Fatalf("reopened shard size %d, want the header's 10", re.shardSize)
	}
}

// TestFrontierJournalTornTail: a partial final line (the SIGKILL
// signature) is truncated away, and recording continues cleanly from
// the surviving prefix.
func TestFrontierJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frontier")
	fj, err := openFrontier(path, "abcd", 100, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	fj.record(0, 120)
	fj.record(1, 260)
	fj.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"shard":2,"by`)
	f.Close()

	re, err := openFrontier(path, "abcd", 100, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if re.merged != 2 || re.bytes != 260 {
		t.Fatalf("after torn tail: %d/%d, want 2/260", re.merged, re.bytes)
	}
	if err := re.record(2, 400); err != nil {
		t.Fatal(err)
	}
	re.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"by`+"\n") || strings.Count(string(data), "\n") != 4 {
		t.Fatalf("journal after recovery:\n%s", data)
	}
}

// TestFrontierJournalRejectsDifferentSweep: a journal written by one
// sweep must refuse a resume under different parameters instead of
// silently merging mismatched outputs.
func TestFrontierJournalRejectsDifferentSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frontier")
	fj, err := openFrontier(path, "abcd", 100, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	fj.Close()

	for _, tc := range []struct {
		fp     string
		trials int
		seed   uint64
	}{
		{"beef", 100, 7}, // different scenario
		{"abcd", 200, 7}, // different trial count
		{"abcd", 100, 8}, // different seed
	} {
		if _, err := openFrontier(path, tc.fp, tc.trials, tc.seed, 10); err == nil ||
			!strings.Contains(err.Error(), "different sweep") {
			t.Fatalf("openFrontier(%+v) = %v, want different-sweep rejection", tc, err)
		}
	}

	// Garbage where the header should be is an error, not a silent
	// restart over a file we don't understand.
	bad := filepath.Join(t.TempDir(), "bad")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openFrontier(bad, "abcd", 100, 7, 10); err == nil ||
		!strings.Contains(err.Error(), "unreadable header") {
		t.Fatalf("openFrontier on garbage = %v, want unreadable-header error", err)
	}
}

// TestFrontierJournalNonMonotonicTail: shard lines that skip an index
// or regress in bytes mark the corruption point — everything after is
// dropped.
func TestFrontierJournalNonMonotonicTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frontier")
	fj, err := openFrontier(path, "abcd", 100, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	fj.record(0, 120)
	fj.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 5 out of order: must not extend the frontier past 1.
	f.WriteString(`{"shard":5,"bytes":900}` + "\n")
	f.Close()

	re, err := openFrontier(path, "abcd", 100, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.merged != 1 || re.bytes != 120 {
		t.Fatalf("after out-of-order tail: %d/%d, want 1/120", re.merged, re.bytes)
	}
}

// FuzzOpenFrontier pins openFrontier's contract on arbitrary file
// bytes: it never panics, and either fails leaving the file untouched
// or keeps a newline-terminated prefix of it — the header plus exactly
// merged shard lines — stamping a fresh header only when the input held
// no complete line at all.
func FuzzOpenFrontier(f *testing.F) {
	path := filepath.Join(f.TempDir(), "frontier")
	fj, err := openFrontier(path, "abcd", 100, 7, 10)
	if err != nil {
		f.Fatal(err)
	}
	for i, b := range []int64{120, 260, 390} {
		if err := fj.record(i, b); err != nil {
			f.Fatal(err)
		}
	}
	fj.Close()
	written, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(written, []byte("\n")) // header, shards 0-2, ""
	fresh, err := json.Marshal(frontierHeader{Sweep: "abcd", Trials: 100, BaseSeed: 7, ShardSize: 10})
	if err != nil {
		f.Fatal(err)
	}
	fresh = append(fresh, '\n')
	for _, seed := range [][]byte{
		written, nil,
		written[:len(written)-5],                                              // torn tail
		bytes.Join([][]byte{lines[0], lines[1], lines[3]}, nil),               // out of order
		append(bytes.Join(lines[:2], nil), `{"shard":1,"bytes":100}`+"\n"...), // bytes regress
		append(bytes.Join(lines[:2], nil), `{"shard":1,"bytes":null}`+"\n"...),
		bytes.Replace(written, []byte(`"trials":100`), []byte(`"trials":200`), 1), // mismatched header
		[]byte("not json\n"),
		fresh[:len(fresh)-1], // torn header
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "frontier")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fj, err := openFrontier(path, "abcd", 100, 7, 10)
		kept, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(kept, data) {
				t.Fatalf("failed open (%v) modified the file", err)
			}
			return
		}
		defer fj.Close()
		if bytes.IndexByte(data, '\n') < 0 {
			if !bytes.Equal(kept, fresh) || fj.merged != 0 {
				t.Fatalf("no complete line in the input, but the journal is %q at %d merged", kept, fj.merged)
			}
			return
		}
		if !bytes.HasPrefix(data, kept) || len(kept) == 0 || kept[len(kept)-1] != '\n' {
			t.Fatalf("kept %q is not a newline-terminated prefix of the input", kept)
		}
		if want := bytes.Count(kept, []byte("\n")) - 1; fj.merged != want {
			t.Fatalf("merged = %d, but %d shard lines were kept", fj.merged, want)
		}
		if fj.shardSize <= 0 {
			t.Fatalf("shard size %d", fj.shardSize)
		}
	})
}
