package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// Backoff ceilings: the first retry waits up to baseDelay, each later
// one up to double the last ceiling, never more than maxDelay.
const (
	baseDelay = 50 * time.Millisecond
	maxDelay  = 5 * time.Second
)

// policy bounds the retry loop of one call.
type policy struct {
	// maxAttempts bounds the total number of tries, first included.
	maxAttempts int
	// attemptTimeout bounds each individual attempt (0 = none).
	attemptTimeout time.Duration
	// budget bounds the whole call, sleeps included, measured from
	// entry (0 = none). The loop never starts a sleep that would
	// overrun it.
	budget time.Duration
}

// Sentinel errors wrapping the last attempt's error (reachable through
// errors.Is/As) when a call gives up for a reason other than a
// non-retryable verdict.
var (
	// errAttemptsExhausted: maxAttempts tries all failed.
	errAttemptsExhausted = errors.New("ninecload: attempts exhausted")
	// errBudgetExhausted: the next backoff would overrun the budget.
	errBudgetExhausted = errors.New("ninecload: retry budget exhausted")
)

// retrier runs operations under a policy with seeded full-jitter
// backoff, asking classifyRetry after each failure. Safe for
// concurrent use; concurrent calls interleave draws from one seeded
// stream, so a single caller is fully deterministic and a concurrent
// run replays by replaying the interleaving.
type retrier struct {
	p policy
	// baseDelay and maxDelay start at the package constants; tests
	// shorten them.
	baseDelay, maxDelay time.Duration

	mu  sync.Mutex
	rng *rand.Rand

	// sleep is swapped by tests to observe delays without waiting.
	sleep func(ctx context.Context, d time.Duration) error
}

func newRetrier(p policy, seed int64) *retrier {
	return &retrier{
		p:         p,
		baseDelay: baseDelay,
		maxDelay:  maxDelay,
		rng:       rand.New(rand.NewSource(seed)),
		sleep:     sleepCtx,
	}
}

// backoff draws the jittered delay after failed attempt n (1-based):
// uniform in [0, min(maxDelay, baseDelay·2^(n-1))). Full jitter
// decorrelates a thundering herd of clients sharing one policy; the
// seeded stream keeps each client replayable.
func (r *retrier) backoff(attempt int) time.Duration {
	ceil := float64(r.baseDelay) * math.Pow(2, float64(attempt-1))
	if m := float64(r.maxDelay); ceil > m {
		ceil = m
	}
	r.mu.Lock()
	f := r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(f * ceil)
}

// do runs op until it succeeds, classifyRetry refuses a retry, the
// attempts run out, or the budget would be overrun. An attempt cut by
// attemptTimeout is retried while the call's own context is live. op
// gets the attempt's context (carrying the attempt timeout and the
// budget deadline). name labels the telemetry counters
// (resilience.<name>.attempts/retries/recovered/giveup/budget_exhausted).
func (r *retrier) do(ctx context.Context, name string, op func(ctx context.Context) error) error {
	reg := obs.Active()
	var deadline time.Time
	if r.p.budget > 0 {
		deadline = time.Now().Add(r.p.budget)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	for attempt := 1; ; attempt++ {
		reg.Counter("resilience." + name + ".attempts").Inc()
		sp := reg.Span("resilience."+name+".attempt").Set("attempt", attempt)
		err := r.attempt(ctx, op)
		sp.End()
		if err == nil {
			if attempt > 1 {
				reg.Counter("resilience." + name + ".recovered").Inc()
			}
			return nil
		}
		retry, after := classifyRetry(err)
		if !retry && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
			// The deadline was the attempt's own attemptTimeout: the
			// call (and its budget) is still live, so try again.
			retry = true
		}
		if !retry {
			return err
		}
		if attempt >= r.p.maxAttempts {
			reg.Counter("resilience." + name + ".giveup").Inc()
			return fmt.Errorf("%w (%d attempts): %w", errAttemptsExhausted, attempt, err)
		}
		delay := max(r.backoff(attempt), after)
		if !deadline.IsZero() && time.Now().Add(delay).After(deadline) {
			reg.Counter("resilience." + name + ".budget_exhausted").Inc()
			return fmt.Errorf("%w (%d attempts, next delay %v): %w",
				errBudgetExhausted, attempt, delay, err)
		}
		reg.Counter("resilience." + name + ".retries").Inc()
		if serr := r.sleep(ctx, delay); serr != nil {
			return fmt.Errorf("%w while backing off: %w", serr, err)
		}
	}
}

// attempt runs op under the per-attempt timeout.
func (r *retrier) attempt(ctx context.Context, op func(context.Context) error) error {
	if r.p.attemptTimeout <= 0 {
		return op(ctx)
	}
	actx, cancel := context.WithTimeout(ctx, r.p.attemptTimeout)
	defer cancel()
	return op(actx)
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
