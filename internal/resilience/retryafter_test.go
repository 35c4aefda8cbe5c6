package resilience

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"
)

func TestRetryAfterWrapUnwrap(t *testing.T) {
	base := errors.New("overloaded")
	err := RetryAfter(base, 3*time.Second)
	if d, ok := RetryAfterHint(err); !ok || d != 3*time.Second {
		t.Fatalf("hint = %v,%v; want 3s,true", d, ok)
	}
	if !errors.Is(err, base) {
		t.Fatal("RetryAfter must preserve the error chain")
	}
	// The hint survives further wrapping, the way call sites add context.
	wrapped := fmt.Errorf("worker w1: %w", err)
	if d, ok := RetryAfterHint(wrapped); !ok || d != 3*time.Second {
		t.Fatalf("wrapped hint = %v,%v; want 3s,true", d, ok)
	}
	if RetryAfter(nil, time.Second) != nil {
		t.Fatal("RetryAfter(nil) must stay nil")
	}
	if got := RetryAfter(base, 0); got != base {
		t.Fatal("non-positive hints must return the error unchanged")
	}
	if _, ok := RetryAfterHint(base); ok {
		t.Fatal("unhinted error must report no hint")
	}
}

func TestRetryerHonorsRetryAfterHint(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0)).AutoAdvance()
	// Jitter 0 so the policy's own delays would be exactly 50ms/100ms —
	// distinguishable from the 7s hints.
	r := NewRetryer(Policy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond,
		MaxDelay: time.Minute, Multiplier: 2}, clock, 1)
	calls := 0
	err := r.Do(context.Background(), func(ctx context.Context) error {
		calls++
		if calls < 3 {
			return RetryAfter(errors.New("busy"), 7*time.Second)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := clock.Slept(), 14*time.Second; got != want {
		t.Fatalf("slept %v, want both hints honored (%v)", got, want)
	}
}

func TestRetryerCapsRetryAfterHint(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0)).AutoAdvance()
	r := NewRetryer(Policy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond,
		MaxDelay: 2 * time.Second, Multiplier: 2}, clock, 1)
	calls := 0
	r.Do(context.Background(), func(ctx context.Context) error {
		calls++
		return RetryAfter(errors.New("busy"), time.Hour)
	})
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if got, want := clock.Slept(), 2*time.Second; got != want {
		t.Fatalf("slept %v, want the policy cap (%v)", got, want)
	}
}

func TestRetryAfterHeaderCodec(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{-time.Second, "1"},
		{time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{7 * time.Second, "7"},
		{time.Minute, "60"},
	} {
		if got := FormatRetryAfter(tc.d); got != tc.want {
			t.Errorf("FormatRetryAfter(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
	for _, tc := range []struct {
		header string
		want   time.Duration
		ok     bool
	}{
		{"", 0, false},
		{"7", 7 * time.Second, true},
		{"1", time.Second, true},
		{"0", 0, false},
		{"-3", 0, false},
		{"1.5", 0, false},
		{"soon", 0, false},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0, false},
	} {
		h := http.Header{}
		if tc.header != "" {
			h.Set("Retry-After", tc.header)
		}
		if got, ok := ParseRetryAfter(h); got != tc.want || ok != tc.ok {
			t.Errorf("ParseRetryAfter(%q) = %v,%v; want %v,%v", tc.header, got, ok, tc.want, tc.ok)
		}
	}
	// A formatted hint parses back to at least the duration it encodes.
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Second, 2500 * time.Millisecond} {
		got, ok := ParseRetryAfter(http.Header{"Retry-After": {FormatRetryAfter(d)}})
		if !ok || got < d {
			t.Errorf("round trip of %v = %v,%v; want >= %v", d, got, ok, d)
		}
	}
}
