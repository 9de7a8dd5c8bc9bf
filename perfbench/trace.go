package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records the benchmark's own spans around its calls into each
// layer of the program. A nil tracer records nothing and costs one nil
// check per call, which is how untraced runs use it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Name is "<path>/<layer>"; Parent indexes the
// span that caused it (-1 for a root); ID is the step segment or job it
// belongs to; Lane separates concurrent actors (ranks, clients).
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	ID         int64
	Lane       int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// now is the start time for a later record; zero without a tracer.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// open starts a span that later spans name as their parent; close ends
// it.
func (t *tracer) open(name string, parent int, id int64, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), End: -1, Parent: parent, ID: id, Lane: lane})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) {
	if t == nil {
		return
	}
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// record adds a finished span that started at start and ends now.
func (t *tracer) record(name string, parent int, id int64, lane int, start time.Time) {
	if t == nil {
		return
	}
	t.add(name, parent, id, lane, start, time.Now())
}

// add records a finished span with explicit bounds.
func (t *tracer) add(name string, parent int, id int64, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, ID: id, Lane: lane})
	t.mu.Unlock()
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of its interval that its child spans cover (children
// on concurrent lanes may overlap; their union is what counts).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]time.Duration
		for _, c := range children[i] {
			cs := t.spans[c]
			if cs.End < 0 {
				continue
			}
			iv = append(iv, [2]time.Duration{max(cs.Start, s.Start), min(cs.End, s.End)})
		}
		self[s.Name] += s.End - s.Start - unionLen(iv)
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE time.Duration
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
			continue
		}
		curE = max(curE, x[1])
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeLedger prints, per execution path, each layer's self time per
// unit of work; units maps a path to its count of steps. A path's root
// span ("<path>/segment" or "<path>/job") keeps only the time no layer
// span covers, which is printed as "unattributed".
func (t *tracer) writeLedger(w io.Writer, units map[string]float64) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "layer ledger (self ms per step, spans from the benchmark's own calls)\n")
	for _, n := range names {
		path, layer, _ := strings.Cut(n, "/")
		u := units[path]
		if u == 0 {
			continue
		}
		if layer == "segment" || layer == "job" {
			layer = "unattributed"
		}
		fmt.Fprintf(w, "  %-10s %-18s %12.4f\n", path, layer, float64(self[n].Microseconds())/1000/u)
	}
}

// writeChrome writes the spans as a Chrome trace_event file.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		parent := ""
		if s.Parent >= 0 {
			parent = t.spans[s.Parent].Name
		}
		evs = append(evs, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
