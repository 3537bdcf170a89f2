package loadgen_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seculator/internal/serve"
	"seculator/internal/serve/client"
	"seculator/internal/serve/loadgen"
)

func newTarget(t *testing.T) *client.Client {
	t.Helper()
	s, err := serve.New(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Close(ctx)
		hs.Close()
	})
	return client.New(hs.URL, hs.Client())
}

// The load generator sustains a rate against a live server and reports a
// complete latency distribution.
func TestLoadgenReportsLatencyAndThroughput(t *testing.T) {
	c := newTarget(t)
	rep, err := loadgen.Run(context.Background(), c, loadgen.Options{
		RPS: 200, Duration: 500 * time.Millisecond, Network: "Mini",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 || rep.OK == 0 {
		t.Fatalf("no traffic: %+v", rep)
	}
	if rep.OK+rep.Shed+errCount(rep) != rep.Sent {
		t.Fatalf("accounting broken: %+v", rep)
	}
	if rep.P50 <= 0 || rep.P95 < rep.P50 || rep.P99 < rep.P95 || rep.Max < rep.P99 {
		t.Fatalf("percentiles out of order: p50=%v p95=%v p99=%v max=%v", rep.P50, rep.P95, rep.P99, rep.Max)
	}
	if rep.AchievedRPS <= 0 {
		t.Fatalf("throughput %v", rep.AchievedRPS)
	}
	out := rep.String()
	for _, want := range []string{"p50", "p95", "p99", "req/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// Session mode binds the whole run to one secure session.
func TestLoadgenSessions(t *testing.T) {
	c := newTarget(t)
	rep, err := loadgen.Run(context.Background(), c, loadgen.Options{
		RPS: 100, Duration: 300 * time.Millisecond, Network: "Mini", Sessions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 {
		t.Fatalf("no session traffic succeeded: %+v", rep)
	}
}

func errCount(r loadgen.Report) int {
	n := 0
	for _, v := range r.Errors {
		n += v
	}
	return n
}

// Two schedules derived from the same seed are identical — arrival offsets
// and per-request model seeds both — so a workload run replays exactly.
// A different seed must produce a different schedule, and the legacy
// (unseeded, uniform) shape must stay sequentially seeded.
func TestScheduleReproducible(t *testing.T) {
	for _, poisson := range []bool{false, true} {
		opts := loadgen.Options{RPS: 500, Duration: time.Second, Seed: 42, Poisson: poisson}
		a := loadgen.Schedule(opts)
		b := loadgen.Schedule(opts)
		if len(a) == 0 {
			t.Fatalf("poisson=%v: empty schedule", poisson)
		}
		if len(a) != len(b) {
			t.Fatalf("poisson=%v: lengths differ: %d vs %d", poisson, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("poisson=%v: arrival %d differs: %+v vs %+v", poisson, i, a[i], b[i])
			}
		}

		opts.Seed = 43
		c := loadgen.Schedule(opts)
		same := len(a) == len(c)
		if same {
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("poisson=%v: seeds 42 and 43 produced the identical schedule", poisson)
		}
	}

	legacy := loadgen.Schedule(loadgen.Options{RPS: 100, Duration: 100 * time.Millisecond})
	if len(legacy) == 0 {
		t.Fatal("legacy schedule empty")
	}
	for i, a := range legacy {
		if a.Seed != int64(i)+1 {
			t.Fatalf("legacy arrival %d has seed %d, want %d", i, a.Seed, i+1)
		}
		if want := time.Duration(i+1) * 10 * time.Millisecond; a.At != want {
			t.Fatalf("legacy arrival %d at %v, want %v", i, a.At, want)
		}
	}
}

// Poisson schedules keep the configured mean rate: the arrival count over
// a long window stays near RPS*Duration.
func TestSchedulePoissonRate(t *testing.T) {
	opts := loadgen.Options{RPS: 1000, Duration: 10 * time.Second, Seed: 7, Poisson: true}
	n := len(loadgen.Schedule(opts))
	if n < 9000 || n > 11000 {
		t.Fatalf("poisson schedule has %d arrivals for a 10000-mean window", n)
	}
}

// Nearest-rank percentiles at the sample sizes the per-phase workload
// reports actually see. Samples are 1ms..n ms so the expected quantile is
// just ceil(p*n) ms — in particular p99 of 99 samples is the maximum, which
// the old round-based index got wrong (it read the 98th).
func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n             int
		p50, p95, p99 int // expected rank (1-based)
	}{
		{1, 1, 1, 1},
		{3, 2, 3, 3},
		{99, 50, 95, 99},
		{100, 50, 95, 99},
		{1000, 500, 950, 990},
	}
	for _, tc := range cases {
		samples := make([]time.Duration, tc.n)
		for i := range samples {
			samples[i] = time.Duration(i+1) * time.Millisecond
		}
		for _, q := range []struct {
			p    float64
			rank int
		}{{0.50, tc.p50}, {0.95, tc.p95}, {0.99, tc.p99}} {
			got := loadgen.Percentile(samples, q.p)
			want := time.Duration(q.rank) * time.Millisecond
			if got != want {
				t.Errorf("n=%d p%.0f: got %v, want %v (rank %d)", tc.n, q.p*100, got, want, q.rank)
			}
		}
	}
	if got := loadgen.Percentile(nil, 0.99); got != 0 {
		t.Errorf("empty sample p99 = %v, want 0", got)
	}
}
