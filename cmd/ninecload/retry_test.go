package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// errFlaky is a transport-shaped failure: classifyRetry retries it.
var errFlaky = errors.New("flaky")

// testRetrier is newRetrier with its backoff ceilings set to base
// doubling up to ceil.
func testRetrier(p policy, base, ceil time.Duration, seed int64) *retrier {
	r := newRetrier(p, seed)
	r.baseDelay, r.maxDelay = base, ceil
	return r
}

// TestBackoffDeterministic: two retriers with the same seed draw the
// same jitter sequence; a different seed draws a different one.
func TestBackoffDeterministic(t *testing.T) {
	a := testRetrier(policy{}, 10*time.Millisecond, time.Second, 42)
	b := testRetrier(policy{}, 10*time.Millisecond, time.Second, 42)
	c := testRetrier(policy{}, 10*time.Millisecond, time.Second, 43)
	var sameAsC int
	for i := 1; i <= 32; i++ {
		da, db, dc := a.backoff(i), b.backoff(i), c.backoff(i)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da == dc {
			sameAsC++
		}
	}
	if sameAsC > 4 {
		t.Fatalf("different seeds nearly identical: %d/32 equal draws", sameAsC)
	}
}

// TestBackoffCeilings: every draw respects the per-attempt ceiling,
// which doubles from baseDelay, and the maxDelay cap.
func TestBackoffCeilings(t *testing.T) {
	r := testRetrier(policy{}, 10*time.Millisecond, 80*time.Millisecond, 7)
	for attempt := 1; attempt <= 10; attempt++ {
		ceil := 10 * time.Millisecond << (attempt - 1)
		if ceil > 80*time.Millisecond {
			ceil = 80 * time.Millisecond
		}
		for i := 0; i < 100; i++ {
			if d := r.backoff(attempt); d < 0 || d >= ceil {
				t.Fatalf("attempt %d: draw %v outside [0, %v)", attempt, d, ceil)
			}
		}
	}
}

// TestDoRetriesUntilSuccess: transient failures retry, the recovery is
// reported as success, and the sleep sequence replays from the seed.
func TestDoRetriesUntilSuccess(t *testing.T) {
	run := func(seed int64) []time.Duration {
		r := testRetrier(policy{maxAttempts: 5}, time.Millisecond, maxDelay, seed)
		var slept []time.Duration
		r.sleep = func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		}
		calls := 0
		err := r.do(context.Background(), "test", func(context.Context) error {
			calls++
			if calls < 4 {
				return errFlaky
			}
			return nil
		})
		if err != nil {
			t.Fatalf("do: %v", err)
		}
		if calls != 4 {
			t.Fatalf("calls = %d, want 4", calls)
		}
		return slept
	}
	if a, b := run(99), run(99); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("sleep sequence not replayable: %v vs %v", a, b)
	}
}

// TestDoNonRetryable: a terminal verdict (a 400) is returned unwrapped,
// after exactly one attempt.
func TestDoNonRetryable(t *testing.T) {
	fatal := &httpError{Status: 400, Class: "corrupt"}
	r := testRetrier(policy{maxAttempts: 5}, time.Microsecond, maxDelay, 1)
	calls := 0
	err := r.do(context.Background(), "test", func(context.Context) error {
		calls++
		return fatal
	})
	if err != error(fatal) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want the 400 unwrapped after 1 call", err, calls)
	}
}

// TestDoAttemptsExhausted: maxAttempts failures wrap the last error in
// errAttemptsExhausted, still reachable through errors.Is.
func TestDoAttemptsExhausted(t *testing.T) {
	r := testRetrier(policy{maxAttempts: 3}, time.Microsecond, maxDelay, 1)
	calls := 0
	err := r.do(context.Background(), "test", func(context.Context) error {
		calls++
		return errFlaky
	})
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, errAttemptsExhausted) || !errors.Is(err, errFlaky) {
		t.Fatalf("err = %v, want errAttemptsExhausted wrapping errFlaky", err)
	}
}

// TestDoRetryAfterFloor: a 503's Retry-After lifts the wait above the
// jittered draw.
func TestDoRetryAfterFloor(t *testing.T) {
	r := testRetrier(policy{maxAttempts: 2}, time.Microsecond, time.Microsecond, 1)
	var slept time.Duration
	r.sleep = func(_ context.Context, d time.Duration) error {
		slept = d
		return nil
	}
	r.do(context.Background(), "test", func(context.Context) error {
		return &httpError{Status: 503, RetryAfter: 250 * time.Millisecond}
	})
	if slept != 250*time.Millisecond {
		t.Fatalf("slept %v, want the 250ms Retry-After floor", slept)
	}
}

// TestDoBudgetNeverExceeded drives many concurrent calls against an
// always-failing op under the race detector and asserts no call ever
// overruns its budget (plus scheduling slack) — the wall-clock
// contract ninecload's overrun check depends on.
func TestDoBudgetNeverExceeded(t *testing.T) {
	const budget = 100 * time.Millisecond
	r := testRetrier(policy{
		maxAttempts: 1000, // budget, not attempts, must be the binding constraint
		budget:      budget,
	}, 5*time.Millisecond, 40*time.Millisecond, 7)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			err := r.do(context.Background(), "soak", func(context.Context) error {
				return errFlaky
			})
			elapsed := time.Since(start)
			if err == nil {
				t.Error("always-failing op reported success")
			}
			if !errors.Is(err, errBudgetExhausted) && !errors.Is(err, context.DeadlineExceeded) &&
				!errors.Is(err, errAttemptsExhausted) {
				t.Errorf("unexpected give-up reason: %v", err)
			}
			// Generous slack: the contract is "never starts a sleep that
			// would overrun", so the overshoot is bounded by one attempt.
			if elapsed > budget+80*time.Millisecond {
				t.Errorf("do ran %v, budget %v", elapsed, budget)
			}
		}()
	}
	wg.Wait()
}

// TestDoBudgetStopsBeforeSleep: the loop refuses to start a sleep that
// would overrun the budget — here a 503 asking for an hour, or for the
// clamped longest delay a huge Retry-After parses to — reporting
// errBudgetExhausted rather than sleeping into the deadline.
func TestDoBudgetStopsBeforeSleep(t *testing.T) {
	for _, after := range []time.Duration{time.Hour, math.MaxInt64} {
		r := newRetrier(policy{maxAttempts: 10, budget: 50 * time.Millisecond}, 1)
		slept := false
		r.sleep = func(_ context.Context, d time.Duration) error {
			slept = true
			return nil
		}
		err := r.do(context.Background(), "test", func(context.Context) error {
			return &httpError{Status: 503, RetryAfter: after}
		})
		if !errors.Is(err, errBudgetExhausted) {
			t.Fatalf("Retry-After %v: err = %v, want errBudgetExhausted", after, err)
		}
		if slept {
			t.Fatalf("Retry-After %v: retry loop slept into a budget it could not afford", after)
		}
	}
}

// TestDoCancelDuringBackoff: a context cancelled mid-backoff surfaces
// both the cancellation and the underlying error.
func TestDoCancelDuringBackoff(t *testing.T) {
	r := testRetrier(policy{maxAttempts: 5}, time.Hour, time.Hour, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err := r.do(ctx, "test", func(context.Context) error { return errFlaky })
	if !errors.Is(err, context.Canceled) || !errors.Is(err, errFlaky) {
		t.Fatalf("err = %v, want Canceled wrapping errFlaky", err)
	}
}
