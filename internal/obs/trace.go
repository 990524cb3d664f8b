package obs

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Attr is one key/value annotation on a trace span. Structural
// attributes (row counts, clauses, OBDD nodes, memo hits, ...) are
// deterministic for a given query and database — identical whatever the
// worker count or batch size — and are the part pinned by the
// determinism tests. Loose attributes (durations, batch counts, spill
// files, physical operator choices) may vary run to run.
type Attr struct {
	Key        string
	Val        string
	Structural bool
}

// Span is one node of a query trace: a plan operator, an eager
// confidence-computation step, or a probability tier. The zero span is
// unusable; create children with Child. All methods are nil-safe so
// instrumented code can run with tracing off at zero branching cost at
// the call site.
type Span struct {
	Name     string
	Dur      time.Duration
	Attrs    []Attr
	Children []*Span
}

// Child appends and returns a new child span. Nil receiver → nil child
// (all of whose methods are no-ops too).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name}
	s.Children = append(s.Children, c)
	return c
}

// SetDur records the span's duration (a loose attribute, rendered only
// with timings enabled).
func (s *Span) SetDur(d time.Duration) {
	if s == nil {
		return
	}
	s.Dur = d
}

func (s *Span) put(key, val string, structural bool) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: val, Structural: structural})
	return s
}

// Int records a structural integer attribute.
func (s *Span) Int(key string, v int64) *Span { return s.put(key, strconv.FormatInt(v, 10), true) }

// Float records a structural float attribute.
func (s *Span) Float(key string, v float64) *Span {
	return s.put(key, strconv.FormatFloat(v, 'g', -1, 64), true)
}

// Str records a structural string attribute.
func (s *Span) Str(key, v string) *Span { return s.put(key, v, true) }

// LooseInt records a non-structural integer attribute (may vary with
// worker count, batch size or scheduling).
func (s *Span) LooseInt(key string, v int64) *Span {
	return s.put(key, strconv.FormatInt(v, 10), false)
}

// LooseDur records a non-structural duration attribute, in seconds — a
// phase of the span's own Dur worth reading on its own.
func (s *Span) LooseDur(key string, d time.Duration) *Span {
	return s.put(key, strconv.FormatFloat(d.Seconds(), 'f', 4, 64)+"s", false)
}

// LooseStr records a non-structural string attribute.
func (s *Span) LooseStr(key, v string) *Span { return s.put(key, v, false) }

// Trace is a per-query execution trace: identification plus the span
// tree. Collected by internal/plan when Spec.Trace is set; attached to
// plan.Stats.Trace.
type Trace struct {
	Query   string `json:"query"`
	Style   string `json:"style"`
	Workers int    `json:"workers"` // loose: whatever the spec requested
	Root    *Span  `json:"root"`
}

// NewTrace returns a trace whose root span carries the query name.
func NewTrace(query, style string, workers int) *Trace {
	return &Trace{Query: query, Style: style, Workers: workers, Root: &Span{Name: "query " + query}}
}

// Render formats the span tree in the Explain style: one line per span,
// two-space indentation per depth, attributes as key=value. With
// timings=false, durations and loose attributes are omitted — the
// result is the structural trace, deterministic across worker counts.
func (t *Trace) Render(timings bool) string {
	if t == nil || t.Root == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %s [%s]", t.Query, t.Style)
	if timings {
		fmt.Fprintf(&b, " workers=%d", t.Workers)
	}
	attrs := func(s *Span) {
		for _, a := range s.Attrs {
			if !a.Structural && !timings {
				continue
			}
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Val)
		}
		if timings && s.Dur > 0 {
			fmt.Fprintf(&b, " (%.4fs)", s.Dur.Seconds())
		}
	}
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(s.Name)
		attrs(s)
		b.WriteString("\n")
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	// The root span's identity is the header itself: its attributes join
	// the header line and its children start at depth 0.
	attrs(t.Root)
	b.WriteString("\n")
	for _, c := range t.Root.Children {
		walk(c, 0)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Fingerprint is the structural rendering (no timings, no loose
// attributes): bit-identical across worker counts and batch sizes for
// the same query, database and style.
func (t *Trace) Fingerprint() string { return t.Render(false) }

// spanJSON is the serialized form of a Span: structural attributes under
// "attrs", loose ones under "loose", duration in seconds.
type spanJSON struct {
	Name     string            `json:"name"`
	DurSec   float64           `json:"dur_sec,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Loose    map[string]string `json:"loose,omitempty"`
	Children []*Span           `json:"children,omitempty"`
}

// MarshalJSON serializes the span with structural and loose attributes
// separated, so downstream consumers (library callers archiving
// Trace.JSON) can diff structural parts across runs.
func (s *Span) MarshalJSON() ([]byte, error) {
	j := spanJSON{Name: s.Name, DurSec: s.Dur.Seconds(), Children: s.Children}
	for _, a := range s.Attrs {
		if a.Structural {
			if j.Attrs == nil {
				j.Attrs = map[string]string{}
			}
			j.Attrs[a.Key] = a.Val
		} else {
			if j.Loose == nil {
				j.Loose = map[string]string{}
			}
			j.Loose[a.Key] = a.Val
		}
	}
	return json.Marshal(j)
}

// JSON renders the whole trace as indented JSON.
func (t *Trace) JSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	return json.MarshalIndent(t, "", "  ")
}
