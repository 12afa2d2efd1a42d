package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job share
// its Job number. A span with Parent 0 and Detached false is the job's
// root; every other attached span lies inside its parent and beside no
// sibling, because a closed-loop client does one thing at a time and a
// server handler runs inside the client request that caused it. Work a
// job triggers asynchronously (the router's sweep aggregator calling
// workers) is Detached: it counts in the layer figures but not in the
// job's self-time accounting.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Job      int    `json:"job"`
	Name     string `json:"name"`
	Kind     string `json:"kind,omitempty"` // root spans: the job kind
	Node     string `json:"node,omitempty"` // server spans: which server
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Detached bool   `json:"detached,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory. A nil tracer, or one switched off,
// records nothing, so untraced passes run the same code without it.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  map[int][]int // job → stack of open attached span IDs
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[int][]int{}}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) at(when time.Time) int64 { return int64(when.Sub(t.epoch)) }

// begin opens an attached span under the job's innermost open span and
// returns its ID (0 when tracing is off).
func (t *tracer) begin(job int, name string) int {
	return t.beginSpan(span{Job: job, Name: name})
}

// beginSpan is begin for a span that carries more than a name.
func (t *tracer) beginSpan(s span) int {
	if !t.enabled() {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Start = t.at(now)
	id := t.appendLocked(s)
	t.open[s.Job] = append(t.open[s.Job], id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.at(now)
	if st := t.open[s.Job]; len(st) > 0 && st[len(st)-1] == id {
		if len(st) == 1 {
			delete(t.open, s.Job)
		} else {
			t.open[s.Job] = st[:len(st)-1]
		}
	}
}

// add records an already-measured interval as a child of the job's
// innermost open span, or detached from the job's tree.
func (t *tracer) add(s span, start, end time.Time) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Start, s.End = t.at(start), t.at(end)
	t.appendLocked(s)
}

func (t *tracer) appendLocked(s span) int {
	s.ID = len(t.spans) + 1
	if st := t.open[s.Job]; !s.Detached && len(st) > 0 {
		s.Parent = st[len(st)-1]
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each attached span's self time in nanoseconds: its
// duration minus its children's. Per job the self times sum to the root
// span's duration; checkSelfTimes verifies that no child overlaps a
// sibling or outlives its parent, so none of that time is counted twice.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Detached {
			continue
		}
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path, workload string, spans []span) error {
	data, err := json.Marshal(map[string]any{"workload": workload, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
