package ninecdclient

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

// Policy configures the client's retry loop. Zero fields take the
// documented defaults; a zero Policy is a sane transient-fault policy.
type Policy struct {
	// MaxAttempts bounds the total number of tries, first included
	// (default 4).
	MaxAttempts int
	// BaseDelay is the backoff ceiling before the first retry
	// (default 50ms); the ceiling doubles per attempt.
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling (default 5s).
	MaxDelay time.Duration
	// AttemptTimeout bounds each individual attempt (0 = none).
	AttemptTimeout time.Duration
	// Budget bounds the whole call, sleeps included, measured from
	// entry (0 = none). The loop never starts a sleep that would
	// overrun it.
	Budget time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// Sentinel errors wrapping the last attempt's error (reachable through
// errors.Is/As) when a call gives up for a reason other than a
// non-retryable verdict.
var (
	// ErrAttemptsExhausted: MaxAttempts tries all failed.
	ErrAttemptsExhausted = errors.New("ninecdclient: attempts exhausted")
	// ErrBudgetExhausted: the next backoff would overrun Budget.
	ErrBudgetExhausted = errors.New("ninecdclient: retry budget exhausted")
)

// retrier runs operations under a Policy with seeded full-jitter
// backoff, asking ClassifyRetry after each failure. Safe for
// concurrent use; concurrent calls interleave draws from one seeded
// stream, so a single caller is fully deterministic and a concurrent
// run replays by replaying the interleaving.
type retrier struct {
	p Policy

	mu  sync.Mutex
	rng *rand.Rand

	// sleep is swapped by tests to observe delays without waiting.
	sleep func(ctx context.Context, d time.Duration) error
}

func newRetrier(p Policy, seed int64) *retrier {
	return &retrier{
		p:     p.withDefaults(),
		rng:   rand.New(rand.NewSource(seed)),
		sleep: sleepCtx,
	}
}

// backoff draws the jittered delay after failed attempt n (1-based):
// uniform in [0, min(MaxDelay, BaseDelay·2^(n-1))). Full jitter
// decorrelates a thundering herd of clients sharing one policy; the
// seeded stream keeps each client replayable.
func (r *retrier) backoff(attempt int) time.Duration {
	ceil := float64(r.p.BaseDelay) * math.Pow(2, float64(attempt-1))
	if m := float64(r.p.MaxDelay); ceil > m {
		ceil = m
	}
	r.mu.Lock()
	f := r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(f * ceil)
}

// do runs op until it succeeds, ClassifyRetry refuses a retry, the
// attempts run out, or the budget would be overrun. An attempt cut by
// AttemptTimeout is retried while the call's own context is live. op gets the
// attempt's context (carrying the attempt timeout and the budget
// deadline) and its 0-based index, which ring routing maps to the
// failover order. name labels the telemetry counters
// (resilience.<name>.attempts/retries/recovered/giveup/budget_exhausted).
func (r *retrier) do(ctx context.Context, name string, op func(ctx context.Context, try int) error) error {
	reg := obs.Active()
	var deadline time.Time
	if r.p.Budget > 0 {
		deadline = time.Now().Add(r.p.Budget)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	for attempt := 1; ; attempt++ {
		reg.Counter("resilience." + name + ".attempts").Inc()
		sp := reg.Span("resilience."+name+".attempt").Set("attempt", attempt)
		err := r.attempt(ctx, attempt-1, op)
		sp.End()
		if err == nil {
			if attempt > 1 {
				reg.Counter("resilience." + name + ".recovered").Inc()
			}
			return nil
		}
		retry, after := ClassifyRetry(err)
		if !retry && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
			// The deadline was the attempt's own AttemptTimeout: the
			// call (and its budget) is still live, so try again.
			retry = true
		}
		if !retry {
			return err
		}
		if attempt >= r.p.MaxAttempts {
			reg.Counter("resilience." + name + ".giveup").Inc()
			return fmt.Errorf("%w (%d attempts): %w", ErrAttemptsExhausted, attempt, err)
		}
		delay := max(r.backoff(attempt), after)
		if !deadline.IsZero() && time.Now().Add(delay).After(deadline) {
			reg.Counter("resilience." + name + ".budget_exhausted").Inc()
			return fmt.Errorf("%w (%d attempts, next delay %v): %w",
				ErrBudgetExhausted, attempt, delay, err)
		}
		reg.Counter("resilience." + name + ".retries").Inc()
		if serr := r.sleep(ctx, delay); serr != nil {
			return fmt.Errorf("%w while backing off: %w", serr, err)
		}
	}
}

// attempt runs op under the per-attempt timeout.
func (r *retrier) attempt(ctx context.Context, try int, op func(context.Context, int) error) error {
	if r.p.AttemptTimeout <= 0 {
		return op(ctx, try)
	}
	actx, cancel := context.WithTimeout(ctx, r.p.AttemptTimeout)
	defer cancel()
	return op(actx, try)
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
