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

// Span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the index of the span that caused this one in
// the recorder's slice, or -1 for a root.
type Span struct {
	Name       string
	Start, End time.Time
	Parent     int
	Req        int64
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pay one nil check per boundary.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

// Record appends a span and returns its index.
func (t *Tracer) Record(s Span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// LinkByReq points every span named child at the span named parent
// that carries the same request id. Handler spans are recorded on the
// server side without knowing the client span, so the link is made
// after the run.
func LinkByReq(spans []Span, parent, child string) {
	byReq := map[int64]int{}
	for i, s := range spans {
		if s.Name == parent {
			byReq[s.Req] = i
		}
	}
	for i := range spans {
		if spans[i].Name != child {
			continue
		}
		if p, ok := byReq[spans[i].Req]; ok {
			spans[i].Parent = p
		}
	}
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children are
// counted once, and a child sticking out of its parent only counts
// inside it).
func SelfTimes(spans []Span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End.Sub(s.Start) - covered(s, spans, kids[i])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p Span, spans []Span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// SelfByName sums self time per span name.
func SelfByName(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// writeSpans writes the run's spans, one JSON object a line, to
// <spans dir>/<workload>.jsonl.
func writeSpans(o options, spans []Span) error {
	if o.spans == "" {
		return nil
	}
	if err := os.MkdirAll(o.spans, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.spans, o.workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(map[string]any{
			"name": s.Name, "start_ns": s.Start.UnixNano(), "end_ns": s.End.UnixNano(), "parent": s.Parent, "req": s.Req,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
