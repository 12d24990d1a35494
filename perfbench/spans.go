package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Parent is the index of the enclosing span on the same lane (-1
// for a root); Op is the operation or request the call served.
type span struct {
	Name   string
	Start  time.Duration // since the recorder's base time
	End    time.Duration
	Parent int
	Op     int64
}

// recorder keeps the spans of one goroutine ("lane") in memory. A nil
// recorder records nothing, so untraced code paths can share call sites
// with traced ones. Spans are written out only when the run ends.
type recorder struct {
	base  time.Time
	lane  int
	label string
	spans []span
}

func newRecorder(base time.Time, lane int, label string) *recorder {
	return &recorder{base: base, lane: lane, label: label, spans: make([]span, 0, 1<<12)}
}

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent int, op int64) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.base), End: -1, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.base)
}

// add records a span whose bounds were measured elsewhere (the server's
// own stage timings, laid out inside the client's request span).
func (r *recorder) add(name string, parent int, op int64, start, end time.Duration) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// layerTime is the aggregated self time of one span name.
type layerTime struct {
	Name  string
	Calls int
	Self  time.Duration // span time not covered by child spans
	Total time.Duration
}

// selfTimes aggregates self time per span name over every lane: a span's
// duration minus the part of its interval its children cover. Children
// of one parent never overlap (each lane is one goroutine), except for
// the server stages laid out inside a request, which are clipped to the
// parent and merged before subtracting.
func selfTimes(lanes []*recorder) []layerTime {
	agg := map[string]*layerTime{}
	for _, r := range lanes {
		children := make([][]int, len(r.spans))
		for i, s := range r.spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], i)
			}
		}
		for i, s := range r.spans {
			if s.End < s.Start {
				continue
			}
			covered := coverage(s, r.spans, children[i])
			lt := agg[s.Name]
			if lt == nil {
				lt = &layerTime{Name: s.Name}
				agg[s.Name] = lt
			}
			lt.Calls++
			lt.Total += s.End - s.Start
			lt.Self += s.End - s.Start - covered
		}
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// coverage is the length of the union of the child intervals, clipped to
// the parent.
func coverage(parent span, all []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := all[k].Start, all[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if !open || v.a > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = v.a, v.b, true
			continue
		}
		if v.b > curB {
			curB = v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// chromeEvent is one Chrome-trace event, the format of the repository's
// Perfetto timelines.
type chromeEvent struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat,omitempty"`
	Ph   string   `json:"ph"`
	TS   float64  `json:"ts"`
	Dur  *float64 `json:"dur,omitempty"`
	PID  int      `json:"pid"`
	TID  int      `json:"tid"`
	Args any      `json:"args,omitempty"`
}

// spanArgs links a span event to its operation and its parent span
// (span indices are per track).
type spanArgs struct {
	Op     int64 `json:"op"`
	Span   int   `json:"span"`
	Parent *int  `json:"parent,omitempty"`
}

// writeChromeTrace writes every lane's spans as complete ("X") events in
// microseconds: metadata first, then each lane's events in start order
// with enclosing spans before the spans they enclose, so every track's
// timestamps are non-decreasing.
func writeChromeTrace(w io.Writer, process string, lanes []*recorder) error {
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": process},
	}}
	for _, r := range lanes {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: r.lane,
			Args: map[string]any{"name": r.label},
		})
	}
	for _, r := range lanes {
		idx := make([]int, 0, len(r.spans))
		for i, s := range r.spans {
			if s.End >= s.Start {
				idx = append(idx, i)
			}
		}
		sort.SliceStable(idx, func(a, b int) bool {
			sa, sb := r.spans[idx[a]], r.spans[idx[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End > sb.End
		})
		for _, i := range idx {
			s := r.spans[i]
			dur := float64(s.End-s.Start) / float64(time.Microsecond)
			args := spanArgs{Op: s.Op, Span: i}
			if s.Parent >= 0 {
				args.Parent = &r.spans[i].Parent
			}
			events = append(events, chromeEvent{
				Name: s.Name, Cat: "layer", Ph: "X",
				TS:  float64(s.Start) / float64(time.Microsecond),
				Dur: &dur, PID: 1, TID: r.lane, Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}); err != nil {
		return fmt.Errorf("write span trace: %w", err)
	}
	return nil
}
