package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Span is one timed call into a layer's public API, recorded by the
// benchmark around the call. Spans of one shard share its ID.
type Span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing off: every method is a no-op.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
	open  map[string]int // shard ID → its open client-side span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), open: map[string]int{}}
}

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// add records a finished span and returns its index.
func (r *recorder) add(name, id string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, ID: id, Parent: parent, Start: r.ns(start), End: r.ns(end)})
	return len(r.spans) - 1
}

// begin opens a span that end closes. A shard's open span is the parent
// of whatever the server side records for that shard meanwhile.
func (r *recorder) begin(name, id string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, ID: id, Parent: parent, Start: r.ns(now), End: -1})
	i := len(r.spans) - 1
	if id != "" {
		r.open[id] = i
	}
	return i
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = r.ns(now)
	if r.open[r.spans[i].ID] == i {
		delete(r.open, r.spans[i].ID)
	}
}

// openSpan returns the open client-side span of a shard, or -1.
func (r *recorder) openSpan(id string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.open[id]; ok {
		return i
	}
	return -1
}

func (r *recorder) snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// durations returns the durations of every closed span with the given
// name, in nanoseconds.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTime is span i's duration minus the part of it its children
// cover. Children are clipped to the parent and overlaps between them
// count once.
func selfTime(spans []Span, i int) int64 {
	p := spans[i]
	var iv [][2]int64
	for _, s := range spans {
		if s.Parent != i || s.End < s.Start {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return p.dur() - covered
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
