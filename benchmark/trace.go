package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of a traced op. Spans of one op share Op;
// Parent is the ID of the span that caused this one (-1 for the root).
// Derived spans were not stamped by the harness: their length comes from a
// field the program returned (InferResponse.QueueMs/RunMs) and their
// placement inside the parent is nominal.
type span struct {
	Op      uint64  `json:"op"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	SelfUs  float64 `json:"self_us"`
	Derived bool    `json:"derived,omitempty"`
}

// tracer keeps every span in memory until the benchmark ends. A nil tracer
// is the untraced pass: begin returns a nil opTrace whose methods do
// nothing, so an op pays one nil check.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	ops   uint64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opTrace collects the spans of one op; span 0 is the root.
type opTrace struct {
	tr    *tracer
	spans []span
}

func (t *tracer) begin(name string, start time.Time) *opTrace {
	if t == nil {
		return nil
	}
	o := &opTrace{tr: t}
	o.spans = append(o.spans, span{ID: 0, Parent: -1, Name: name, StartUs: us(start.Sub(t.epoch))})
	return o
}

// child records a finished span under parent and returns its ID.
func (o *opTrace) child(parent int, name string, start, end time.Time) int {
	return o.add(parent, name, start, end, false)
}

// derived records a span rebuilt from a field the program returned.
func (o *opTrace) derived(parent int, name string, start time.Time, d time.Duration) int {
	return o.add(parent, name, start, start.Add(d), true)
}

func (o *opTrace) add(parent int, name string, start, end time.Time, derived bool) int {
	if o == nil {
		return -1
	}
	id := len(o.spans)
	o.spans = append(o.spans, span{
		ID: id, Parent: parent, Name: name, Derived: derived,
		StartUs: us(start.Sub(o.tr.epoch)), DurUs: us(end.Sub(start)),
	})
	return id
}

// end closes the root span, settles self times and hands the op's spans to
// the tracer.
func (o *opTrace) end(at time.Time) {
	if o == nil {
		return
	}
	o.spans[0].DurUs = us(at.Sub(o.tr.epoch)) - o.spans[0].StartUs
	selfTimes(o.spans)
	t := o.tr
	t.mu.Lock()
	t.ops++
	for i := range o.spans {
		o.spans[i].Op = t.ops
	}
	t.spans = append(t.spans, o.spans...)
	t.mu.Unlock()
}

// selfTimes sets each span's self time to its length minus the length of
// its direct children, so children plus self equal the parent by
// construction.
func selfTimes(spans []span) {
	for i := range spans {
		spans[i].SelfUs = spans[i].DurUs
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			spans[s.Parent].SelfUs -= s.DurUs
		}
	}
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
