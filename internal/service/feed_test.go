package service

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rcbcast/internal/engine"
	"rcbcast/internal/sim/sink"
)

// recordLines renders n-node records for the given trial indices with
// the NDJSON sink, exactly as a job writes its output.
func recordLines(n int, trials ...int) []byte {
	var buf bytes.Buffer
	s := sink.NewNDJSON(&buf)
	for _, i := range trials {
		s.Trial(i, &engine.Result{N: n, Informed: n - 1, Rounds: 3 + i, SlotsSimulated: int64(100 * i), StrategyName: "full"})
	}
	return buf.Bytes()
}

// FuzzOpenResults pins openResults' contract on arbitrary file bytes,
// for a job owning trials [2, 5) of a 16-node sweep: it never panics,
// and it either fails with the file byte-for-byte untouched or keeps a
// newline-terminated prefix of the file whose lines are exactly the
// sweep's records 2, 3, … in order — stopping only at a line
// sink.ParseRecord rejects or a newline-less tail.
func FuzzOpenResults(f *testing.F) {
	const lo, n, total = 2, 16, 3
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

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "out.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lg, done, size, err := openResults(path, lo, n, total)
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(got, data) {
				t.Fatalf("failed open (%v) modified the file", err)
			}
			return
		}
		lg.Close()
		if !bytes.HasPrefix(data, got) || int64(len(got)) != size {
			t.Fatalf("kept %d bytes (size %d), not a prefix of the %d-byte file", len(got), size, len(data))
		}
		if len(got) > 0 && got[len(got)-1] != '\n' {
			t.Fatal("kept prefix is not newline-terminated")
		}
		kept := 0
		for line := range bytes.Lines(got) {
			var rec sink.Record
			if err := sink.ParseRecord(line, &rec); err != nil {
				t.Fatalf("kept line %d does not parse: %v", kept, err)
			}
			if rec.Trial != lo+kept || rec.N != n {
				t.Fatalf("kept line %d is trial %d n=%d, want trial %d n=%d", kept, rec.Trial, rec.N, lo+kept, n)
			}
			kept++
		}
		if kept != done || done > total {
			t.Fatalf("kept %d lines, reported done=%d of %d", kept, done, total)
		}
		rest := data[len(got):]
		if k := bytes.IndexByte(rest, '\n'); k >= 0 {
			var rec sink.Record
			if sink.ParseRecord(rest[:k+1], &rec) == nil {
				t.Fatal("truncated a parseable line instead of failing the open")
			}
		}
	})
}
