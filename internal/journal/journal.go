// Package journal owns the durable NDJSON line discipline every
// crash-resumable record in rcbcast shares (DESIGN.md §8, §12, §15): a
// file of complete newline-terminated JSON lines, scanned in order on
// open, truncated at the first torn or rejected line, and extended one
// flushed line at a time. A process killed mid-write leaves at most one
// torn tail, which the next Open drops.
//
// The record schema — which lines are headers, which are entries, what
// makes a line acceptable — belongs to the caller's keep callback;
// this package never inspects line contents.
package journal

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
)

// Log is an open journal positioned for append.
type Log struct {
	f         *os.File
	bw        *bufio.Writer
	enc       *json.Encoder
	err       error // first Append failure; sticks
	truncated bool  // Open dropped a tail
}

// Open opens (or creates) the journal at path and hands each complete
// line, in order, to keep. Scanning stops at the first line keep
// rejects; that line, everything after it, and any newline-less tail
// are truncated away, and the Log appends after the kept prefix. A
// file that is all kept lines is not truncated at all: even a no-op
// truncate arms ext4's flush-on-close for truncated files (closing a
// fresh 50-line file written after one took 16 µs, against 1 µs
// without, on a 2 vCPU Intel Xeon VM).
//
// If keep returns an error, Open returns it unchanged and leaves the
// file byte-for-byte untouched: the caller has found a file it must not
// overwrite (a different sweep's journal, say).
func Open(path string, keep func(line []byte) (bool, error)) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(f)
	var off int64
	tail := false // there are bytes past the kept prefix
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			tail = len(line) > 0 // a newline-less tail is a torn write: drop it
			break
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		ok, err := keep(line)
		if err != nil {
			f.Close()
			return nil, err
		}
		if !ok {
			tail = true
			break
		}
		off += int64(len(line))
	}
	if tail {
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	bw := bufio.NewWriter(f)
	return &Log{f: f, bw: bw, enc: json.NewEncoder(bw), truncated: tail}, nil
}

// Truncated reports whether Open dropped a torn or rejected tail.
func (l *Log) Truncated() bool { return l.truncated }

// Append writes v as one JSON line and flushes it to the file before
// returning, so a killed process loses at most the line in flight. The
// first error sticks: every later Append returns it without writing.
func (l *Log) Append(v any) error {
	if l.err != nil {
		return l.err
	}
	if err := l.enc.Encode(v); err != nil {
		l.err = err
		return err
	}
	if err := l.bw.Flush(); err != nil {
		l.err = err
		return err
	}
	return nil
}

// Write appends p, one or more lines the caller has already encoded,
// straight to the file — the io.Writer face of a journal whose lines
// come from an encoder of their own. It shares Append's sticky error.
// Append flushes its buffer before it returns, so bytes from the two
// never reorder.
func (l *Log) Write(p []byte) (int, error) {
	if l.err != nil {
		return 0, l.err
	}
	n, err := l.f.Write(p)
	if err != nil {
		l.err = err
	}
	return n, err
}

// Err returns the sticky write error, if any.
func (l *Log) Err() error { return l.err }

// Close closes the file. Every Append has already flushed its line, so
// nothing is left to write.
func (l *Log) Close() error { return l.f.Close() }
