package sink

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"

	"rcbcast/internal/engine"
)

// Record is the flat per-trial summary the NDJSON and CSV sinks emit:
// the scalar outcome of one engine execution, without the O(n) NodeCosts
// vector, so a million-trial output file stays proportional to the
// trial count, not to trials·nodes.
type Record struct {
	Trial          int    `json:"trial"`
	N              int    `json:"n"`
	Informed       int    `json:"informed"`
	Stranded       int    `json:"stranded"`
	Dead           int    `json:"dead"`
	Completed      bool   `json:"completed"`
	Rounds         int    `json:"rounds"`
	Slots          int64  `json:"slots"`
	AliceCost      int64  `json:"alice_cost"`
	NodeMedianCost int64  `json:"node_median_cost"`
	NodeMaxCost    int64  `json:"node_max_cost"`
	AdversarySpent int64  `json:"adversary_spent"`
	Strategy       string `json:"strategy"`
}

// NewRecord summarizes trial i's result.
func NewRecord(i int, r *engine.Result) Record {
	return Record{
		Trial:          i,
		N:              r.N,
		Informed:       r.Informed,
		Stranded:       r.Stranded,
		Dead:           r.Dead,
		Completed:      r.Completed,
		Rounds:         r.Rounds,
		Slots:          r.SlotsSimulated,
		AliceCost:      r.Alice.Cost,
		NodeMedianCost: r.NodeCost.Median,
		NodeMaxCost:    r.NodeCost.Max,
		AdversarySpent: r.AdversarySpent,
		Strategy:       r.StrategyName,
	}
}

// csvHeader is the CSV header line, matching Record's field order.
const csvHeader = "trial,n,informed,stranded,dead,completed,rounds,slots,alice_cost,node_median_cost,node_max_cost,adversary_spent,strategy\n"

// appendJSON renders the record as one JSON line into buf, byte for
// byte what encoding/json's Encoder emits for Record (field order, no
// spaces, HTML-safe string escaping, trailing newline) — without the
// reflection walk and per-trial buffer allocations.
func (rec *Record) appendJSON(buf []byte) []byte {
	buf = append(buf, `{"trial":`...)
	buf = strconv.AppendInt(buf, int64(rec.Trial), 10)
	buf = append(buf, `,"n":`...)
	buf = strconv.AppendInt(buf, int64(rec.N), 10)
	buf = append(buf, `,"informed":`...)
	buf = strconv.AppendInt(buf, int64(rec.Informed), 10)
	buf = append(buf, `,"stranded":`...)
	buf = strconv.AppendInt(buf, int64(rec.Stranded), 10)
	buf = append(buf, `,"dead":`...)
	buf = strconv.AppendInt(buf, int64(rec.Dead), 10)
	buf = append(buf, `,"completed":`...)
	buf = strconv.AppendBool(buf, rec.Completed)
	buf = append(buf, `,"rounds":`...)
	buf = strconv.AppendInt(buf, int64(rec.Rounds), 10)
	buf = append(buf, `,"slots":`...)
	buf = strconv.AppendInt(buf, rec.Slots, 10)
	buf = append(buf, `,"alice_cost":`...)
	buf = strconv.AppendInt(buf, rec.AliceCost, 10)
	buf = append(buf, `,"node_median_cost":`...)
	buf = strconv.AppendInt(buf, rec.NodeMedianCost, 10)
	buf = append(buf, `,"node_max_cost":`...)
	buf = strconv.AppendInt(buf, rec.NodeMaxCost, 10)
	buf = append(buf, `,"adversary_spent":`...)
	buf = strconv.AppendInt(buf, rec.AdversarySpent, 10)
	buf = append(buf, `,"strategy":`...)
	buf = appendJSONString(buf, rec.Strategy)
	buf = append(buf, '}', '\n')
	return buf
}

// LayoutError reports a record line that is not in the exact layout
// appendJSON emits: Offset is the byte where parsing stopped, Want what
// the layout required there.
type LayoutError struct {
	Offset int
	Want   string
}

func (e *LayoutError) Error() string {
	return fmt.Sprintf("sink: record line breaks the NDJSON layout at byte %d: want %s", e.Offset, e.Want)
}

// ParseRecord decodes one NDJSON record line — the exact inverse of
// appendJSON, so this file alone owns the line layout. It accepts only
// the encoder's fixed field order, with no whitespace, ending in `}\n`.
// Every integer must be JSON number syntax (no leading zeros, no plus
// sign, no fraction) and fit its field; anything else is a
// *LayoutError. A strict parse is safe because the encoder is pinned
// byte for byte to encoding/json (TestAppendJSONMatchesEncodingJSON):
// every worker version emits exactly this layout, and every line it
// accepts, json.Unmarshal accepts with an identical result
// (FuzzParseRecord).
//
// rec is written only on success. A plain-ASCII strategy equal to
// rec's current one keeps rec.Strategy, so a caller reusing one Record
// across a stream decodes a repeated strategy without allocating; a
// strategy with escapes or non-ASCII bytes falls to encoding/json for
// that one quoted token.
func ParseRecord(line []byte, rec *Record) error {
	d := lineDecoder{b: line}
	r := Record{
		Trial:          int(d.int(`{"trial":`, strconv.IntSize)),
		N:              int(d.int(`,"n":`, strconv.IntSize)),
		Informed:       int(d.int(`,"informed":`, strconv.IntSize)),
		Stranded:       int(d.int(`,"stranded":`, strconv.IntSize)),
		Dead:           int(d.int(`,"dead":`, strconv.IntSize)),
		Completed:      d.bool(`,"completed":`),
		Rounds:         int(d.int(`,"rounds":`, strconv.IntSize)),
		Slots:          d.int(`,"slots":`, 64),
		AliceCost:      d.int(`,"alice_cost":`, 64),
		NodeMedianCost: d.int(`,"node_median_cost":`, 64),
		NodeMaxCost:    d.int(`,"node_max_cost":`, 64),
		AdversarySpent: d.int(`,"adversary_spent":`, 64),
		Strategy:       d.str(`,"strategy":`, rec.Strategy),
	}
	d.lit("}\n")
	if d.err == nil && d.p != len(d.b) {
		d.fail("end of line")
	}
	if d.err != nil {
		return d.err
	}
	*rec = r
	return nil
}

// lineDecoder walks a record line left to right. The first mismatch
// sets err; every later call is a no-op, so ParseRecord reads as the
// field list it decodes.
type lineDecoder struct {
	b   []byte
	p   int
	err error
}

func (d *lineDecoder) fail(want string) {
	if d.err == nil {
		d.err = &LayoutError{Offset: d.p, Want: want}
	}
}

// lit consumes the literal s.
func (d *lineDecoder) lit(s string) bool {
	if d.err != nil {
		return false
	}
	if len(d.b)-d.p < len(s) || string(d.b[d.p:d.p+len(s)]) != s {
		d.fail(strconv.Quote(s))
		return false
	}
	d.p += len(s)
	return true
}

// int consumes key and then a JSON integer that fits a bits-wide
// signed integer.
func (d *lineDecoder) int(key string, bits int) int64 {
	if !d.lit(key) {
		return 0
	}
	b, i := d.b, d.p
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' || (b[i] == '0' && i+1 < len(b) && b[i+1] >= '0' && b[i+1] <= '9') {
		d.fail("a JSON integer")
		return 0
	}
	limit := uint64(1)<<(bits-1) - 1 // largest magnitude that fits
	if neg {
		limit++
	}
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		dig := uint64(b[i] - '0')
		if u > (limit-dig)/10 {
			d.fail(fmt.Sprintf("an integer that fits %d bits", bits))
			return 0
		}
		u = u*10 + dig
	}
	d.p = i
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// bool consumes key and then true or false.
func (d *lineDecoder) bool(key string) bool {
	if !d.lit(key) {
		return false
	}
	rest := d.b[d.p:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.p += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.p += 5
		return false
	}
	d.fail("true or false")
	return false
}

// str consumes key and then a JSON string, returning prev itself when
// the string is plain ASCII with prev's exact bytes.
func (d *lineDecoder) str(key, prev string) string {
	if !d.lit(key) {
		return ""
	}
	b := d.b[d.p:]
	if len(b) == 0 || b[0] != '"' {
		d.fail("a JSON string")
		return ""
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.p += i + 1
			if string(b[1:i]) == prev {
				return prev
			}
			return string(b[1:i])
		case c == '\\' || c >= utf8.RuneSelf:
			return d.escapedStr(b)
		case c < 0x20:
			d.fail("a JSON string")
			return ""
		}
	}
	d.fail("a JSON string")
	return ""
}

// escapedStr decodes the quoted token at the start of b with
// encoding/json — the slow path for escapes and non-ASCII bytes.
func (d *lineDecoder) escapedStr(b []byte) string {
	for i := 1; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			var s string
			if json.Unmarshal(b[:i+1], &s) != nil {
				d.fail("a JSON string")
				return ""
			}
			d.p += i + 1
			return s
		}
	}
	d.fail("a JSON string")
	return ""
}

const hexDigits = "0123456789abcdef"

// appendJSONString escapes s exactly as encoding/json does with HTML
// escaping on (the Encoder default): quotes, backslashes, control
// characters, plus <, >, & and U+2028/U+2029. Strategy names are plain
// ASCII in practice, so the fast path is a straight copy.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch c {
			case '"', '\\':
				buf = append(buf, '\\', c)
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// NDJSON writes one JSON line (a Record) per trial, one Write per line
// from a reused buffer. The first write error sticks: Trial keeps
// returning it, and Flush surfaces it for a stream with no later trial.
type NDJSON struct {
	w   io.Writer
	buf []byte
	err error
}

// NewNDJSON returns an NDJSON sink writing to w.
func NewNDJSON(w io.Writer) *NDJSON { return &NDJSON{w: w} }

// Trial implements sim.Sink.
func (s *NDJSON) Trial(i int, r *engine.Result) error {
	rec := NewRecord(i, r)
	return s.WriteRecord(&rec)
}

// WriteRecord implements RecordWriter.
func (s *NDJSON) WriteRecord(rec *Record) error {
	if s.err != nil {
		return s.err
	}
	s.buf = rec.appendJSON(s.buf[:0])
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
	}
	return s.err
}

// Flush implements sim.Sink.
func (s *NDJSON) Flush() error { return s.err }

// CSV writes a header plus one row (a Record) per trial; zero trials
// write nothing. Rows go through a bufio.Writer with encoding/csv's
// quoting rules, so write errors surface when the buffer flushes.
type CSV struct {
	w      *bufio.Writer
	buf    []byte
	header bool
}

// NewCSV returns a CSV sink writing to w.
func NewCSV(w io.Writer) *CSV { return &CSV{w: bufio.NewWriter(w)} }

// Trial implements sim.Sink.
func (s *CSV) Trial(i int, r *engine.Result) error {
	rec := NewRecord(i, r)
	return s.WriteRecord(&rec)
}

// WriteRecord implements RecordWriter.
func (s *CSV) WriteRecord(rec *Record) error {
	if !s.header {
		s.header = true
		if _, err := s.w.WriteString(csvHeader); err != nil {
			return err
		}
	}
	b := s.buf[:0]
	b = strconv.AppendInt(b, int64(rec.Trial), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(rec.N), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(rec.Informed), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(rec.Stranded), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(rec.Dead), 10)
	b = append(b, ',')
	b = strconv.AppendBool(b, rec.Completed)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(rec.Rounds), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, rec.Slots, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, rec.AliceCost, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, rec.NodeMedianCost, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, rec.NodeMaxCost, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, rec.AdversarySpent, 10)
	b = append(b, ',')
	b = appendCSVField(b, rec.Strategy)
	b = append(b, '\n')
	s.buf = b
	_, err := s.w.Write(s.buf)
	return err
}

// appendCSVField appends the strategy name with encoding/csv's quoting
// rules (comma-separated, LF-terminated writer): quote when the field
// contains a comma, quote, CR or LF, begins with a space, or is the
// literal `\.`; inner quotes double.
func appendCSVField(buf []byte, field string) []byte {
	if !csvFieldNeedsQuotes(field) {
		return append(buf, field...)
	}
	buf = append(buf, '"')
	for i := 0; i < len(field); i++ {
		if field[i] == '"' {
			buf = append(buf, '"', '"')
		} else {
			buf = append(buf, field[i])
		}
	}
	return append(buf, '"')
}

func csvFieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		switch field[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// Flush implements sim.Sink.
func (s *CSV) Flush() error {
	return s.w.Flush()
}
