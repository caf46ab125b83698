package main

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"
)

// tracer records the benchmark's own spans around its calls into the
// program's layers. Spans stay in memory and are handed to the parent
// process when the repetition ends. A nil *tracer records nothing, so
// untraced code paths call it unconditionally.
type tracer struct {
	traceID string
	origin  time.Time

	mu    sync.Mutex
	spans []spanRecord
}

// spanRecord is one finished span. Times are milliseconds from the start
// of the repetition; Parent is 0 for a root span.
type spanRecord struct {
	Name    string  `json:"name"`
	TraceID string  `json:"trace_id"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// span is an open span; end records it.
type span struct {
	t      *tracer
	id     int
	parent int
	name   string
	start  time.Time
}

func newTracer(traceID string) *tracer {
	return &tracer{traceID: traceID, origin: time.Now()}
}

// newTraceID mints the 32-hex-digit identifier shared by every span of
// one workload run.
func newTraceID() string {
	var b [16]byte
	_, _ = rand.Read(b[:]) // crypto/rand.Read never fails on Linux
	return hex.EncodeToString(b[:])
}

// start opens a span now.
func (t *tracer) start(name string, parent *span) *span {
	return t.startAt(name, parent, time.Now())
}

// startAt opens a span that began at a known time, such as the moment a
// request was due.
func (t *tracer) startAt(name string, parent *span, at time.Time) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// IDs are assigned at start so children can name their parent; the
	// record itself is appended at end.
	t.spans = append(t.spans, spanRecord{})
	s := &span{t: t, id: len(t.spans), name: name, start: at}
	if parent != nil {
		s.parent = parent.id
	}
	return s
}

func (s *span) end() { s.endAt(time.Now()) }

func (s *span) endAt(at time.Time) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[s.id-1] = spanRecord{
		Name:    s.name,
		TraceID: t.traceID,
		ID:      s.id,
		Parent:  s.parent,
		StartMS: msSince(t.origin, s.start),
		EndMS:   msSince(t.origin, at),
	}
}

// hexID returns the span's identifier as 16 hex digits, for a W3C
// traceparent header; "" for a nil span.
func (s *span) hexID() string {
	if s == nil {
		return ""
	}
	var b [8]byte
	for i, v := 7, uint64(s.id); i >= 0; i, v = i-1, v>>8 {
		b[i] = byte(v)
	}
	return hex.EncodeToString(b[:])
}

// records returns the finished spans with their self time: a span's
// duration minus the part of its interval its children cover (children
// that ran in parallel are merged first, so overlap is not subtracted
// twice).
func (t *tracer) records() []spanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]float64)
	var out []spanRecord
	for _, r := range t.spans {
		if r.ID == 0 {
			continue // still open
		}
		out = append(out, r)
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], [2]float64{r.StartMS, r.EndMS})
		}
	}
	for i := range out {
		r := &out[i]
		r.SelfMS = r.EndMS - r.StartMS - covered(children[r.ID], r.StartMS, r.EndMS)
	}
	return out
}

// total sums the durations of the finished spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var ms float64
	for _, r := range t.records() {
		if r.Name == name {
			ms += r.EndMS - r.StartMS
		}
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// count is the number of finished spans with the given name.
func (t *tracer) count(name string) int {
	n := 0
	for _, r := range t.records() {
		if r.Name == name {
			n++
		}
	}
	return n
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum float64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

func msSince(origin, t time.Time) float64 {
	return float64(t.Sub(origin)) / float64(time.Millisecond)
}
