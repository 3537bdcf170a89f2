package metrics

import (
	"strconv"
	"sync"
	"testing"
	"time"
)

// Families render in registration order, a labelled family's samples by
// sorted label values, integers as %d and durations as %.3f milliseconds.
func TestRenderOrderAndFormats(t *testing.T) {
	var (
		r       Registry
		first   Counter
		byCode  CounterVec
		elapsed Counter
		shed    CounterVec
		high    Gauge
	)
	r.Counter("z_first_total", &first)
	r.CounterVec("requests_total", &byCode, "code")
	r.MillisCounter("latency_ms_total", &elapsed)
	r.CounterVec("shed_total", &shed, "tenant", "reason")
	r.Counter("high_water", &high.Counter)
	r.Collect(func(w *Writer) {
		w.Int("depth", 7)
		w.Millis("p99_ms", 1234567*time.Nanosecond, "replica", `r"1`)
	})

	first.Add(3)
	byCode.Inc(Code(503))
	byCode.Inc(Code(200))
	byCode.Inc(Code(200))
	elapsed.Add(int64(2500 * time.Microsecond))
	elapsed.Add(int64(499 * time.Nanosecond))
	shed.Inc("b", "rate")
	shed.Inc("a", "rate")
	shed.Inc("a", "queue")
	shed.Inc("a", "rate")
	high.Add(4)
	high.Add(-1)

	const want = `z_first_total 3
requests_total{code="200"} 2
requests_total{code="503"} 1
latency_ms_total 2.500
shed_total{tenant="a",reason="queue"} 1
shed_total{tenant="a",reason="rate"} 2
shed_total{tenant="b",reason="rate"} 1
high_water 3
depth 7
p99_ms{replica="r\"1"} 1.235
`
	if got := r.Render(); got != want {
		t.Fatalf("scrape:\n%s\nwant:\n%s", got, want)
	}

	// Value reads it back: exact family names, label subsets summed.
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
		found  bool
	}{
		{"z_first_total", nil, 3, true},
		{"requests_total", nil, 3, true},
		{"requests_total", []string{"code", "200"}, 2, true},
		{"shed_total", []string{"tenant", "a"}, 3, true},
		{"shed_total", []string{"reason", "rate"}, 3, true},
		{"shed_total", []string{"reason", "rate", "tenant", "b"}, 1, true},
		{"shed_total", []string{"tenant", "c"}, 0, false},
		{"p99_ms", []string{"replica", `r"1`}, 1.235, true},
		{"latency_ms_total", nil, 2.5, true},
		{"high", nil, 0, false}, // a prefix of high_water, not a family
		{"z_first", nil, 0, false},
		{"absent", nil, 0, false},
	} {
		if got, found := Value(want, c.name, c.labels...); got != c.want || found != c.found {
			t.Errorf("Value(%s, %q) = %v, %v; want %v, %v", c.name, c.labels, got, found, c.want, c.found)
		}
	}
}

// Every sample Writer writes reads back through Value as written, whatever
// bytes its label values hold; a family never written, even one a written
// name prefixes or extends, reads as not found.
func FuzzMetricsRoundTrip(f *testing.F) {
	f.Add("x", uint8(0), "a", "", "b", "", int64(0), int64(0))
	f.Add("tenant_breaches_total", uint8(1), "tenant", "evil", "reason", "", int64(3), int64(1234567))
	f.Add("q", uint8(2), "tenant", `a"b,c}d{e`, "reason", "x\ny\n=z", int64(-1), int64(-999))
	f.Fuzz(func(t *testing.T, family string, nlabels uint8, l1, v1, l2, v2 string, n, ms int64) {
		family, l1, l2 = lowerName(family), lowerName(l1), lowerName(l2)
		if l2 == l1 {
			l2 += "_b"
		}
		labels := []string{l1, v1, l2, v2}[:2*(int(nlabels)%3)]
		msFamily := family + "_ms"
		var w Writer
		w.Int(family, n, labels...)
		w.Millis(msFamily, time.Duration(ms), labels...)
		scrape := string(w.buf)

		if got, ok := Value(scrape, family, labels...); !ok || got != float64(n) {
			t.Fatalf("Int %d reads %v, %v from %q", n, got, ok, scrape)
		}
		wantMs, _ := strconv.ParseFloat(strconv.FormatFloat(float64(ms)/float64(time.Millisecond), 'f', 3, 64), 64)
		if got, ok := Value(scrape, msFamily, labels...); !ok || got != wantMs {
			t.Fatalf("Millis %dns reads %v, %v, want %v from %q", ms, got, ok, wantMs, scrape)
		}
		for i := 0; i < len(labels); i += 2 {
			if got, ok := Value(scrape, family, labels[i], labels[i+1]); !ok || got != float64(n) {
				t.Fatalf("label %s=%q alone reads %v, %v from %q", labels[i], labels[i+1], got, ok, scrape)
			}
			if _, ok := Value(scrape, family, labels[i], labels[i+1]+"x"); ok {
				t.Fatalf("label %s with a value never written matched in %q", labels[i], scrape)
			}
		}
		for _, absent := range []string{family[:len(family)-1], family + "_m", msFamily + "_"} {
			if absent == "" {
				continue
			}
			if got, ok := Value(scrape, absent); ok {
				t.Fatalf("unwritten family %q reads %v from %q", absent, got, scrape)
			}
		}
	})
}

// lowerName maps s onto a non-empty name over [a-z_].
func lowerName(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c < 'a' || c > 'z' {
			b[i] = 'a' + c%27
			if b[i] > 'z' {
				b[i] = '_'
			}
		}
	}
	return "n" + string(b)
}

func TestCodeLabels(t *testing.T) {
	for status, want := range map[int]string{100: "100", 200: "200", 599: "599", 42: "42", 600: "600", -1: "-1"} {
		if got := Code(status); got != want {
			t.Errorf("Code(%d) = %q, want %q", status, got, want)
		}
	}
}

// Incrementing a counter, or a labelled counter on a label set that
// already exists, allocates nothing.
func TestIncrementsDoNotAllocate(t *testing.T) {
	var (
		c    Counter
		one  CounterVec
		two  CounterVec
		code = 200
	)
	one.Inc("200")
	two.Inc("tenant-a", "rate")
	for name, inc := range map[string]func(){
		"Counter.Inc":      c.Inc,
		"Counter.Add":      func() { c.Add(12) },
		"CounterVec.Inc/1": func() { one.Inc(Code(code)) },
		"CounterVec.Inc/2": func() { two.Inc("tenant-a", "rate") },
	} {
		if n := testing.AllocsPerRun(100, inc); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
}

// Concurrent increments and scrapes neither race nor lose counts.
func TestConcurrentIncrementsAndScrapes(t *testing.T) {
	var (
		r Registry
		c Counter
		v CounterVec
		g Gauge
	)
	r.Counter("c", &c)
	r.CounterVec("v", &v, "k")
	r.Counter("g", &g.Counter)

	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				v.Inc(Code(200 + w%2))
				g.Add(2)
				g.Add(-1)
				if i%100 == 0 {
					_ = r.Render()
				}
			}
		}(w)
	}
	wg.Wait()
	want := "c 4000\nv{k=\"200\"} 2000\nv{k=\"201\"} 2000\ng 4000\n"
	if got := r.Render(); got != want {
		t.Fatalf("scrape %q, want %q", got, want)
	}
}
