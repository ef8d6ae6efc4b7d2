package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Every span of one operation shares Op; Parent is the span
// that caused it (0 for an operation's root). Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends (writing during the
// window would put file I/O inside the thing being measured). It is
// shared by wire_mixed's two connections, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp reserves an operation id for the spans of one op.
func (t *tracer) newOp() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(name string, parent, op int32) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Op: op, Name: name, Start: now})
	return int32(len(t.spans))
}

// end closes a span and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover. Children are clipped to the
// parent and overlapping children (parallel work) are counted once.
func selfTimes(spans []span) map[int32]int64 {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time per span name — the traced run's "where did
// the time go" table.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
