package metrics

import (
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
