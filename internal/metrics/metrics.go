// Package metrics is the one counter registry and the one text-exposition
// writer behind every /metrics endpoint of this module, and the one reader
// (Value) that tests, campaigns and demos read a scrape back with. A tier
// registers its families once, at construction, in the order they should
// appear; Render walks them in that order and writes a labelled family's
// samples sorted by label value, so a scrape is reproducible byte for
// byte. The package imports nothing from this module: any layer may depend
// on it.
package metrics

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is an ordered set of metric families. Registration is not
// synchronized (it happens while the owner is built); everything
// registered is safe for concurrent use afterwards, Render included. The
// metric types work unregistered too — their zero values are ready — so an
// owner can hold them by value and register them wherever its scrape order
// puts them.
type Registry struct {
	families []func(*Writer)
}

// Render returns the scrape text.
func (r *Registry) Render() string {
	var w Writer
	for _, f := range r.families {
		f(&w)
	}
	return string(w.buf)
}

// Collect registers a scrape-time family: f runs on every Render and
// writes whatever samples it has, in its own order, through the Writer.
// It is the hook for values that live elsewhere (queue depths, breaker
// states) and for rows of several families that interleave per label.
func (r *Registry) Collect(f func(*Writer)) { r.families = append(r.families, f) }

// Counter is a monotone count.
type Counter struct{ v atomic.Int64 }

func (c *Counter) Inc()         { c.v.Add(1) }
func (c *Counter) Add(n int64)  { c.v.Add(n) }
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers c as an integer family.
func (r *Registry) Counter(name string, c *Counter) {
	r.Collect(func(w *Writer) { w.Int(name, c.Value()) })
}

// MillisCounter registers c as a sum of elapsed time: Add nanoseconds
// (int64(d)); the scrape shows milliseconds.
func (r *Registry) MillisCounter(name string, c *Counter) {
	r.Collect(func(w *Writer) { w.Millis(name, time.Duration(c.Value())) })
}

// Gauge is a Counter that may also move down (Add a negative delta) and
// registers the same way.
type Gauge struct{ Counter }

// maxLabels is the widest label set a CounterVec carries; a fixed-size
// key is what lets Inc look a label set up without allocating.
const maxLabels = 2

// CounterVec is a counter family keyed by label values.
type CounterVec struct {
	mu sync.Mutex
	m  map[[maxLabels]string]int64
}

// Inc adds one to the sample with these label values (one per label name
// of the family). A label set that already exists allocates nothing; a new
// one appears on the scrape from this first Inc.
func (v *CounterVec) Inc(values ...string) {
	var k [maxLabels]string
	copy(k[:], values)
	v.mu.Lock()
	if v.m == nil {
		v.m = make(map[[maxLabels]string]int64)
	}
	v.m[k]++
	v.mu.Unlock()
}

// CounterVec registers v as a family with the given label names, samples
// sorted by label values.
func (r *Registry) CounterVec(name string, v *CounterVec, labels ...string) {
	if len(labels) < 1 || len(labels) > maxLabels {
		panic("metrics: " + name + ": a CounterVec takes 1.." + strconv.Itoa(maxLabels) + " labels")
	}
	r.Collect(func(w *Writer) {
		v.mu.Lock()
		defer v.mu.Unlock()
		keys := make([][maxLabels]string, 0, len(v.m))
		for k := range v.m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		pairs := make([]string, 2*len(labels))
		for _, k := range keys {
			for i, l := range labels {
				pairs[2*i], pairs[2*i+1] = l, k[i]
			}
			w.Int(name, v.m[k], pairs...)
		}
	})
}

// Code returns an HTTP status as a label value without allocating for the
// three-digit codes.
func Code(status int) string {
	if status >= 100 && status < 100+len(codes) {
		return codes[status-100]
	}
	return strconv.Itoa(status)
}

var codes = func() (t [500]string) {
	for i := range t {
		t[i] = strconv.Itoa(100 + i)
	}
	return t
}()

// Writer is the exposition writer: the one place a sample becomes a line
// of scrape text. labels are name, value pairs.
type Writer struct{ buf []byte }

// Int writes one integer sample.
func (w *Writer) Int(name string, v int64, labels ...string) {
	w.head(name, labels)
	w.buf = strconv.AppendInt(w.buf, v, 10)
	w.buf = append(w.buf, '\n')
}

// Millis writes one duration sample in milliseconds, to the microsecond.
func (w *Writer) Millis(name string, d time.Duration, labels ...string) {
	w.head(name, labels)
	w.buf = strconv.AppendFloat(w.buf, float64(d)/float64(time.Millisecond), 'f', 3, 64)
	w.buf = append(w.buf, '\n')
}

func (w *Writer) head(name string, labels []string) {
	w.buf = append(w.buf, name...)
	for i := 0; i+1 < len(labels); i += 2 {
		if i == 0 {
			w.buf = append(w.buf, '{')
		} else {
			w.buf = append(w.buf, ',')
		}
		w.buf = append(w.buf, labels[i]...)
		w.buf = append(w.buf, '=')
		w.buf = strconv.AppendQuote(w.buf, labels[i+1])
	}
	if len(labels) > 0 {
		w.buf = append(w.buf, '}')
	}
	w.buf = append(w.buf, ' ')
}

// Value reads a scrape back, the inverse of Writer: the sum of every
// sample of the family name (the name exactly, not a longer one it
// prefixes) whose labels include each given name, value pair, values as
// they were before Writer quoted them. The bool reports whether any sample
// matched.
func Value(scrape, name string, labels ...string) (sum float64, found bool) {
	for _, line := range strings.Split(scrape, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		// A sample's number holds no space, so its last space ends the
		// label set even when a quoted value holds spaces.
		sp := strings.LastIndexByte(rest, ' ')
		if !ok || sp < 0 || !hasLabels(rest[:sp], labels) {
			continue
		}
		if v, err := strconv.ParseFloat(rest[sp+1:], 64); err == nil {
			sum, found = sum+v, true
		}
	}
	return sum, found
}

// hasLabels reports whether set, a sample's label set in braces or empty,
// carries each name, value pair of labels.
func hasLabels(set string, labels []string) bool {
	if set != "" {
		if len(set) < 2 || set[0] != '{' || set[len(set)-1] != '}' {
			return false // the rest of a longer family's name
		}
		set = set[1 : len(set)-1]
	}
	for i := 0; i+1 < len(labels); i += 2 {
		if v, ok := label(set, labels[i]); !ok || v != labels[i+1] {
			return false
		}
	}
	return true
}

// label returns the unquoted value of the label name in set.
func label(set, name string) (string, bool) {
	for set != "" {
		eq := strings.IndexByte(set, '=')
		if eq < 0 {
			return "", false
		}
		q, err := strconv.QuotedPrefix(set[eq+1:])
		if err != nil {
			return "", false
		}
		if set[:eq] == name {
			v, err := strconv.Unquote(q)
			return v, err == nil
		}
		set = strings.TrimPrefix(set[eq+1+len(q):], ",")
	}
	return "", false
}
