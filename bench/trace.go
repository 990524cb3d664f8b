package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the boundary. Spans of one row share Query; Parent is the span that caused
// this one (0 for a row's top-level stages).
type span struct {
	ID, Parent int
	Layer      string
	Name       string
	Query      string
	Start, End time.Duration // since the tracer's epoch
	Args       map[string]any
}

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// timed runs fn inside a new span and returns the span's id and duration in
// seconds. fn returns the counts observed at the boundary.
func (t *tracer) timed(layer, name, query string, parent int, fn func() (map[string]any, error)) (int, float64, error) {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Query: query})
	start := time.Since(t.epoch)
	args, err := fn()
	end := time.Since(t.epoch)
	s := &t.spans[id-1]
	s.Start, s.End, s.Args = start, end, args
	return id, (end - start).Seconds(), err
}

// writeChrome writes the spans as Chrome trace-event JSON (load in
// chrome://tracing or ui.perfetto.dev). Stages run on tid 1; the storage
// replay, which is a child of the answer span in attribution but runs before
// it in time, sits on tid 2 so the two do not nest by accident.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "query": s.Query}
		for k, v := range s.Args {
			args[k] = v
		}
		tid := 1
		if s.Layer == "storage" {
			tid = 2
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.Start.Microseconds()), Dur: float64((s.End - s.Start).Microseconds()),
			PID: 1, TID: tid, Args: args,
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
