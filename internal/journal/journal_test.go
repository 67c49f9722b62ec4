package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// keepUpTo accepts lines until it sees stop.
func keepUpTo(stop string) func([]byte) (bool, error) {
	return func(line []byte) (bool, error) { return string(line) != stop, nil }
}

func TestOpenTruncatesAtFirstRejectedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(path, []byte("1\n2\nbad\n3\ntorn"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, keepUpTo("bad\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !l.Truncated() {
		t.Fatal("Truncated() = false after dropping a rejected line")
	}
	if err := l.Append(4); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "1\n2\n4\n" {
		t.Fatalf("journal after reopen and append: %q", got)
	}
}

// TestOpenTruncatesOnlyATail: a newline-less tail alone is dropped; a
// file of kept lines, or an empty one, is left as it is.
func TestOpenTruncatesOnlyATail(t *testing.T) {
	for _, tc := range []struct {
		data, kept string
		truncated  bool
	}{
		{"", "", false},
		{"1\n2\n", "1\n2\n", false},
		{"1\n2\ntorn", "1\n2\n", true},
	} {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, keepUpTo(""))
		if err != nil {
			t.Fatal(err)
		}
		if l.Truncated() != tc.truncated {
			t.Errorf("%q: Truncated() = %v, want %v", tc.data, l.Truncated(), tc.truncated)
		}
		l.Close()
		if got, _ := os.ReadFile(path); string(got) != tc.kept {
			t.Errorf("%q: file after open = %q, want %q", tc.data, got, tc.kept)
		}
	}
}

func TestOpenKeepErrorLeavesFileUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	data := []byte("header\n1\ntorn")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	abort := errors.New("not my journal")
	if _, err := Open(path, func([]byte) (bool, error) { return false, abort }); err != abort {
		t.Fatalf("Open = %v, want the keep error unchanged", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
		t.Fatalf("aborted open modified the file: %q", got)
	}
}

func TestAppendErrorSticks(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "j"), keepUpTo(""))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(func() {}); err == nil {
		t.Fatal("encoding a func must fail")
	}
	if err := l.Append(1); err == nil || err != l.Err() {
		t.Fatalf("Append after a failure = %v, want the sticky %v", err, l.Err())
	}
}

func TestWriteInterleavesWithAppendAndSharesStickyError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	l, err := Open(path, keepUpTo(""))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(1); err != nil {
		t.Fatal(err)
	}
	if n, err := l.Write([]byte("2\n")); n != 2 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := l.Append(3); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "1\n2\n3\n" {
		t.Fatalf("journal after Append/Write/Append: %q", got)
	}
	if err := l.Append(func() {}); err == nil {
		t.Fatal("encoding a func must fail")
	}
	if n, err := l.Write([]byte("4\n")); n != 0 || err == nil || err != l.Err() {
		t.Fatalf("Write after a failure = %d, %v, want 0 and the sticky %v", n, err, l.Err())
	}
	if got, _ := os.ReadFile(path); string(got) != "1\n2\n3\n" {
		t.Fatalf("Write after a failure reached the file: %q", got)
	}
}
