package resilience

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

var errCheck = errors.New("mac check failed")

func TestErrorWrapping(t *testing.T) {
	ie := &IntegrityError{Layer: 3, Tensor: ClassActivation, Err: errCheck}
	if !errors.Is(ie, errCheck) {
		t.Fatal("IntegrityError does not unwrap to the check error")
	}
	wrapped := fmt.Errorf("secure: layer 3: %w", ie)
	var got *IntegrityError
	if !errors.As(wrapped, &got) || got.Layer != 3 {
		t.Fatal("errors.As failed through a wrapping layer")
	}

	fe := &FreshnessError{Layer: 2, Tensor: ClassActivation, Retries: 3, Err: ie}
	if !errors.Is(fe, errCheck) {
		t.Fatal("FreshnessError does not unwrap transitively")
	}
	var gotFE *FreshnessError
	if !errors.As(fmt.Errorf("outer: %w", fe), &gotFE) || gotFE.Retries != 3 {
		t.Fatal("errors.As failed for FreshnessError")
	}

	ce := &ChannelError{Layer: 0, Err: errCheck}
	cfg := &ConfigError{Err: errCheck}
	for _, e := range []error{ce, cfg} {
		if !errors.Is(e, errCheck) {
			t.Fatalf("%T does not unwrap", e)
		}
	}
}

func TestRetryable(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&IntegrityError{Tensor: ClassActivation, Err: errCheck}, true},
		{fmt.Errorf("wrap: %w", &IntegrityError{Err: errCheck}), true},
		{&IntegrityError{Persistent: true, Err: errCheck}, false},
		{&FreshnessError{Err: errCheck}, false},
		{&ChannelError{Err: errCheck}, false},
		{&ConfigError{Err: errCheck}, false},
		{&InternalError{Value: "boom"}, false},
		{errCheck, false},
		{nil, false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	// A FreshnessError wrapping a (non-persistent) IntegrityError must stay
	// non-retryable: the outermost classification wins.
	fe := &FreshnessError{Err: &IntegrityError{Err: errCheck}}
	if Retryable(fe) {
		t.Fatal("FreshnessError wrapping IntegrityError must not be retryable")
	}
}

func TestPolicyBackoff(t *testing.T) {
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond}
	for i, w := range want {
		if got := Backoff(time.Millisecond, 4*time.Millisecond, i+1); got != w {
			t.Errorf("Backoff(1ms, 4ms, %d) = %v, want %v", i+1, got, w)
		}
	}
	if Backoff(0, 0, 1) != 0 {
		t.Fatal("a zero base must not back off")
	}
}

// TestPolicyBackoffUncappedSaturates: with no cap the doubling must stop at
// the longest wait, not wrap — 100 µs doubled 47 times overflows an int64
// of nanoseconds.
func TestPolicyBackoffUncappedSaturates(t *testing.T) {
	var prev time.Duration
	for _, attempt := range []int{1, 47, 48, 64, 1000} {
		got := Backoff(100*time.Microsecond, 0, attempt)
		if got <= 0 || got < prev {
			t.Fatalf("Backoff(100µs, 0, %d) = %v after %v: want a positive, non-decreasing wait", attempt, got, prev)
		}
		prev = got
	}
}

func TestRecoverBackstop(t *testing.T) {
	run := func() (err error) {
		defer Recover(&err)
		panic("unreachable invariant")
	}
	err := run()
	var ie *InternalError
	if !errors.As(err, &ie) || ie.Value != "unreachable invariant" {
		t.Fatalf("panic not captured: %v", err)
	}
	if len(ie.Stack) == 0 {
		t.Fatal("captured panic carries no stack")
	}
}

func TestStatsAdd(t *testing.T) {
	var s Stats
	s.Add(Stats{Retries: 2, Recovered: 1})
	s.Add(Stats{Retries: 1, Persistent: 1, Breached: true})
	if s.Retries != 3 || s.Recovered != 1 || s.Persistent != 1 || !s.Breached {
		t.Fatalf("stats = %+v", s)
	}
}
