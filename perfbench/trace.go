package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer: its name, the span that caused
// it (0 for a root), and the trace it belongs to (a campaign cell or a
// service job). Times are offsets from the tracer's epoch.
type Span struct {
	ID     int
	Parent int
	Trace  int
	Name   string
	Start  time.Duration
	End    time.Duration
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans and named counters in memory. It is safe for use
// from several goroutines; span ids start at 1 so 0 can mean "no
// parent".
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []Span
	counts map[string]int64
}

// NewTracer returns an empty tracer whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), counts: map[string]int64{}}
}

// Now is the current offset from the tracer's epoch.
func (t *Tracer) Now() time.Duration { return time.Since(t.epoch) }

// Begin opens a span now and returns its id; close it with Finish.
func (t *Tracer) Begin(name string, trace, parent int) int {
	return t.Record(name, trace, parent, t.Now(), 0)
}

// Finish closes span id now.
func (t *Tracer) Finish(id int) {
	end := t.Now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// Record adds a span with explicit times and returns its id.
func (t *Tracer) Record(name string, trace, parent int, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	return id
}

// Enclose sets span id's interval to the hull of its direct children:
// the span of a parent whose children were handed to several workers.
func (t *Tracer) Enclose(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lo, hi time.Duration
	first := true
	for _, s := range t.spans {
		if s.Parent != id {
			continue
		}
		if first || s.Start < lo {
			lo = s.Start
		}
		if first || s.End > hi {
			hi = s.End
		}
		first = false
	}
	t.spans[id-1].Start, t.spans[id-1].End = lo, hi
}

// Add adds n to the named counter.
func (t *Tracer) Add(name string, n int64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// Count returns the named counter.
func (t *Tracer) Count(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's self time keyed by span id: its
// duration minus the part of its interval covered by the union of its
// children's intervals. Children of one parent may overlap (a cell
// whose injections run on several workers at once); the overlap is
// counted once.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// SelfByName sums self time over all spans with the same name.
func SelfByName(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// Percentile is the nearest-rank p-th percentile (0 < p <= 100) of
// vals: the smallest value with at least p% of the values at or below
// it. It sorts vals in place and returns NaN for an empty slice.
func Percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(p / 100 * float64(len(vals))))
	rank = min(max(rank, 1), len(vals))
	return vals[rank-1]
}

// Median is the nearest-rank 50th percentile.
func Median(vals []float64) float64 { return Percentile(vals, 50) }
