package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanRecord is one finished span: a named call at a layer boundary,
// the span that caused it, and the request it belongs to. Times are
// offsets from the recorder's base clock.
type spanRecord struct {
	ID      int64         `json:"id"`
	Parent  int64         `json:"parent,omitempty"`
	Request int64         `json:"request"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing off: Start returns nil and every method is a no-op, so the
// untimed and timed paths share one code path.
type recorder struct {
	base  time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []spanRecord
}

// newRecorder returns a recorder when on, and nil (tracing off) when not.
func newRecorder(on bool) *recorder {
	if !on {
		return nil
	}
	return &recorder{base: time.Now()}
}

// span is an open span; End records it.
type span struct {
	rec     *recorder
	id      int64
	parent  int64
	request int64
	name    string
	start   time.Time
}

// Start opens a span named name under parent (nil for a request root,
// which starts a new request id).
func (r *recorder) Start(name string, parent *span) *span {
	if r == nil {
		return nil
	}
	s := &span{rec: r, id: r.next.Add(1), name: name, start: time.Now()}
	if parent != nil {
		s.parent, s.request = parent.id, parent.request
	} else {
		s.request = s.id
	}
	return s
}

// End closes the span and returns its duration (0 on a nil span).
func (s *span) End() time.Duration {
	if s == nil {
		return 0
	}
	end := time.Now()
	r := s.rec
	r.mu.Lock()
	r.spans = append(r.spans, spanRecord{
		ID: s.id, Parent: s.parent, Request: s.request, Name: s.name,
		Start: s.start.Sub(r.base), End: end.Sub(r.base),
	})
	r.mu.Unlock()
	return end.Sub(s.start)
}

// records returns a copy of the finished spans, ordered by start.
func (r *recorder) records() []spanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]spanRecord(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// durations returns the durations, in ms, of the spans named name whose
// parent span is named parentName.
func durations(spans []spanRecord, name, parentName string) []float64 {
	names := make(map[int64]string, len(spans))
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name && names[s.Parent] == parentName {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// layerSelf is one layer's row in the self-time fold.
type layerSelf struct {
	Layer string  `json:"layer"`
	Spans int     `json:"spans"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// layerOf names a span's layer: the part of its name before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// foldSelf computes each layer's self time: every span's duration minus
// the part of its interval that its child spans cover, summed per layer.
func foldSelf(spans []spanRecord) []layerSelf {
	children := make(map[int64][]spanRecord)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerSelf)
	for _, s := range spans {
		covered := coveredWithin(children[s.ID], s.Start, s.End)
		l := layerOf(s.Name)
		row := rows[l]
		if row == nil {
			row = &layerSelf{Layer: l}
			rows[l] = row
		}
		row.Spans++
		row.Total += (s.End - s.Start).Seconds()
		row.Self += (s.End - s.Start - covered).Seconds()
	}
	out := make([]layerSelf, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// coveredWithin returns the length of the union of the spans'
// intervals, clipped to [lo, hi].
func coveredWithin(spans []spanRecord, lo, hi time.Duration) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, v := range iv {
		if v[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeTrace writes the spans and their fold to path as one JSON document.
func writeTrace(path string, spans []spanRecord, fold []layerSelf) error {
	data, err := json.Marshal(struct {
		Fold  []layerSelf  `json:"self_time_by_layer"`
		Spans []spanRecord `json:"spans"`
	}{fold, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printFold renders the self-time fold as a table.
func printFold(w io.Writer, fold []layerSelf) {
	fmt.Fprintf(w, "%-12s %8s %12s %12s\n", "layer", "spans", "total_s", "self_s")
	for _, r := range fold {
		fmt.Fprintf(w, "%-12s %8d %12.4f %12.4f\n", r.Layer, r.Spans, r.Total, r.Self)
	}
}
