package service

import (
	"fmt"
	"os"
	"sync"

	"rcbcast/internal/journal"
)

// feed is one job's live result stream: the <id>.ndjson file plus an
// in-memory watch point so subscribers follow appends without polling
// the filesystem. The file is both the job's output and its only
// durable journal: a late subscriber reads it from byte 0 and gets
// exactly what an early subscriber saw, and a resume appends after the
// file's complete lines, dropping at most a torn tail no subscriber was
// shown.
//
// Appends come from the job runner's single delivery goroutine;
// subscribers and status queries read concurrently through snapshot.
type feed struct {
	mu       sync.Mutex
	log      *journal.Log  // attached only while the job runs
	size     int64         // bytes visible to subscribers
	watch    chan struct{} // closed and replaced on every append/reset
	terminal bool          // no further appends will come
}

// newFeed makes the feed of the job whose output is at path. A
// terminal job's bytes (a completed, failed or canceled job from a
// previous process) are immediately visible; a job that will run again
// shows nothing until its run reopens the file, so a torn tail left by
// a kill is never served.
func newFeed(path string, terminal bool) *feed {
	fd := &feed{watch: make(chan struct{}), terminal: terminal}
	if st, err := os.Stat(path); err == nil && terminal {
		fd.size = st.Size()
	}
	return fd
}

// openForRun attaches the job's record journal for a run attempt at its
// kept size: appends land after the file's complete lines.
func (fd *feed) openForRun(lg *journal.Log, size int64) {
	fd.mu.Lock()
	fd.log = lg
	fd.size = size
	fd.terminal = false
	fd.notifyLocked()
	fd.mu.Unlock()
}

// Write implements io.Writer for the NDJSON sink: append through the
// journal, publish the new size, wake subscribers. One call per trial
// line; a failed write publishes nothing, so subscribers only ever see
// complete lines.
func (fd *feed) Write(p []byte) (int, error) {
	fd.mu.Lock()
	lg := fd.log
	fd.mu.Unlock()
	if lg == nil {
		return 0, fmt.Errorf("service: results feed is not open")
	}
	n, err := lg.Write(p)
	if err == nil {
		fd.mu.Lock()
		fd.size += int64(n)
		fd.notifyLocked()
		fd.mu.Unlock()
	}
	return n, err
}

// closeRun detaches and closes the record journal after a run attempt.
// terminal marks whether the job reached a final state
// (done/failed/canceled) or will resume (shutdown requeue) —
// subscribers end on terminal, keep waiting otherwise.
func (fd *feed) closeRun(terminal bool) {
	fd.mu.Lock()
	if fd.log != nil {
		fd.log.Close()
		fd.log = nil
	}
	fd.terminal = terminal
	fd.notifyLocked()
	fd.mu.Unlock()
}

// setTerminal publishes a terminal transition that happens outside a
// run (canceling a queued job).
func (fd *feed) setTerminal() {
	fd.mu.Lock()
	fd.terminal = true
	fd.notifyLocked()
	fd.mu.Unlock()
}

// reopen marks a terminal feed live again (a failed/canceled job being
// resubmitted): subscribers attached before the run starts wait instead
// of ending early.
func (fd *feed) reopen() {
	fd.mu.Lock()
	fd.terminal = false
	fd.notifyLocked()
	fd.mu.Unlock()
}

// notifyLocked wakes every waiting subscriber. Callers hold fd.mu.
func (fd *feed) notifyLocked() {
	close(fd.watch)
	fd.watch = make(chan struct{})
}

// snapshot returns the visible byte count, a channel closed at the next
// change, and whether the stream is complete. A subscriber streams
// [offset, size), then either returns (terminal and caught up) or waits
// on watch.
func (fd *feed) snapshot() (size int64, watch <-chan struct{}, terminal bool) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.size, fd.watch, fd.terminal
}
