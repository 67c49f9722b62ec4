package sink

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"testing"
)

// encoderRecords are the NDJSON encoder's test rows, hostile strategy
// names included; FuzzParseRecord seeds its corpus from them.
var encoderRecords = []Record{
	{},
	{Trial: 3, N: 256, Informed: 200, Stranded: 1, Dead: 2, Completed: true,
		Rounds: 9, Slots: 123456789, AliceCost: -1, NodeMedianCost: 42,
		NodeMaxCost: 99, AdversarySpent: 4096, Strategy: "full-jam"},
	{Strategy: `phase-blocker(inform=true,prop=false,req=true)`},
	{Strategy: "quotes\" back\\slash <html> & ctrl\x01\n\t\r"},
	{Strategy: "unicode é    ok"},
	{Strategy: "bad utf8 \xff end"},
}

// TestAppendJSONMatchesEncodingJSON pins the hand-rolled NDJSON encoder
// byte for byte against the json.Encoder it replaced, including the
// HTML-safe string escaping of hostile strategy names.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	var buf []byte
	for _, rec := range encoderRecords {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(rec); err != nil {
			t.Fatal(err)
		}
		buf = rec.appendJSON(buf[:0])
		if !bytes.Equal(buf, want.Bytes()) {
			t.Fatalf("appendJSON diverged from encoding/json:\n got %q\nwant %q", buf, want.Bytes())
		}
		var parsed, decoded Record
		if err := ParseRecord(buf, &parsed); err != nil {
			t.Fatalf("ParseRecord(%q): %v", buf, err)
		}
		if err := json.Unmarshal(buf, &decoded); err != nil {
			t.Fatal(err)
		}
		if parsed != decoded {
			t.Fatalf("ParseRecord diverged from json.Unmarshal on %q:\n got %+v\nwant %+v", buf, parsed, decoded)
		}
	}
}

// TestAppendCSVMatchesEncodingCSV pins the hand-rolled field quoting
// against encoding/csv for the strategy column.
func TestAppendCSVMatchesEncodingCSV(t *testing.T) {
	for _, field := range []string{
		"", "full-jam", "phase-blocker(inform=true,prop=false,req=true)",
		`has"quote`, "has,comma", " leading space", "trailing space ",
		"line\nbreak", "cr\rreturn", `\.`, "composite(a+b)",
	} {
		var want bytes.Buffer
		w := csv.NewWriter(&want)
		if err := w.Write([]string{field}); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		got := append(appendCSVField(nil, field), '\n')
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("field %q: got %q want %q", field, got, want.Bytes())
		}
	}
}

// TestSinkEncodersDoNotAllocatePerTrial pins the reuse: once the
// per-sink buffers are warm, encoding a trial allocates nothing.
func TestSinkEncodersDoNotAllocatePerTrial(t *testing.T) {
	rec := Record{Trial: 1, N: 256, Strategy: "full-jam", Slots: 1 << 40}
	var buf []byte
	if n := testing.AllocsPerRun(100, func() {
		buf = rec.appendJSON(buf[:0])
	}); n != 0 {
		t.Fatalf("appendJSON allocated %.1f objects/op after warmup", n)
	}
}

// TestParseRecordDoesNotAllocate pins the decode side of the reuse: a
// plain-ASCII line whose strategy repeats the previous line's parses
// into the caller's Record without allocating.
func TestParseRecordDoesNotAllocate(t *testing.T) {
	src := Record{Trial: 7, N: 256, Completed: true, Slots: 1 << 40, AliceCost: -5, Strategy: "full-jam"}
	line := src.appendJSON(nil)
	var rec Record
	if err := ParseRecord(line, &rec); err != nil {
		t.Fatal(err)
	}
	var err error
	if n := testing.AllocsPerRun(100, func() {
		err = ParseRecord(line, &rec)
	}); n != 0 {
		t.Fatalf("ParseRecord allocated %.1f objects/op on a repeated strategy", n)
	}
	if err != nil || rec != src {
		t.Fatalf("ParseRecord = %+v, %v; want %+v", rec, err, src)
	}
}

// TestParseRecordIntegerBounds pins overflow at each field width: the
// extreme values round-trip, one past them is a layout error.
func TestParseRecordIntegerBounds(t *testing.T) {
	line := func(trial, slots string) []byte {
		return []byte(`{"trial":` + trial + `,"n":0,"informed":0,"stranded":0,"dead":0,"completed":false,"rounds":0,"slots":` +
			slots + `,"alice_cost":0,"node_median_cost":0,"node_max_cost":0,"adversary_spent":0,"strategy":""}` + "\n")
	}
	maxInt, minInt := strconv.Itoa(math.MaxInt), strconv.Itoa(math.MinInt)
	for _, tc := range []struct {
		trial, slots string
		ok           bool
	}{
		{maxInt, "9223372036854775807", true},
		{minInt, "-9223372036854775808", true},
		{"0", "9223372036854775808", false},
		{"0", "-9223372036854775809", false},
		{"0", "99999999999999999999", false},
		{strconv.FormatUint(math.MaxInt+1, 10), "0", false},
		{"-0", "0", true},
		{"00", "0", false},
		{"+1", "0", false},
		{"1.0", "0", false},
		{"1e3", "0", false},
		{"-", "0", false},
	} {
		var rec Record
		err := ParseRecord(line(tc.trial, tc.slots), &rec)
		if tc.ok != (err == nil) {
			t.Fatalf("trial %s slots %s: err = %v, want ok=%v", tc.trial, tc.slots, err, tc.ok)
		}
		if err != nil {
			var le *LayoutError
			if !errors.As(err, &le) {
				t.Fatalf("trial %s slots %s: error %T is not a *LayoutError", tc.trial, tc.slots, err)
			}
			continue
		}
		var want Record
		if err := json.Unmarshal(line(tc.trial, tc.slots), &want); err != nil || rec != want {
			t.Fatalf("trial %s slots %s: ParseRecord %+v, json.Unmarshal %+v (%v)", tc.trial, tc.slots, rec, want, err)
		}
	}
}

// FuzzParseRecord is the differential check of the strict parser:
// on arbitrary bytes it never panics, a rejection is a *LayoutError
// that leaves the Record untouched, and whatever it accepts,
// json.Unmarshal accepts with an identical Record.
func FuzzParseRecord(f *testing.F) {
	for _, rec := range encoderRecords {
		f.Add(rec.appendJSON(nil))
	}
	full := encoderRecords[1].appendJSON(nil)
	f.Add(bytes.Replace(full, []byte(`:`), []byte(`: `), 1))
	f.Add(bytes.Replace(full, []byte(`"n":256`), []byte(`"n":0256`), 1))
	f.Add(bytes.Replace(full, []byte(`full-jam`), []byte(`\u0066ull-jam`), 1))
	f.Add(full[:len(full)-1])
	f.Fuzz(func(t *testing.T, line []byte) {
		seed := Record{Trial: -1, Strategy: "full-jam"}
		got := seed
		if err := ParseRecord(line, &got); err != nil {
			var le *LayoutError
			if !errors.As(err, &le) {
				t.Fatalf("error %T is not a *LayoutError: %v", err, err)
			}
			if got != seed {
				t.Fatalf("rejected line %q still wrote the Record: %+v", line, got)
			}
			return
		}
		var want Record
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("ParseRecord accepted %q, json.Unmarshal rejects it: %v", line, err)
		}
		if got != want {
			t.Fatalf("line %q: ParseRecord %+v, json.Unmarshal %+v", line, got, want)
		}
	})
}

// BenchmarkParseRecord prices the strict parser against the
// json.Unmarshal decode it replaced, on a worker-shaped line.
func BenchmarkParseRecord(b *testing.B) {
	line := encoderRecords[1].appendJSON(nil)
	b.Run("ParseRecord", func(b *testing.B) {
		b.ReportAllocs()
		var rec Record
		for b.Loop() {
			if err := ParseRecord(line, &rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var rec Record
			if err := json.Unmarshal(line, &rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
