package chaos

import (
	"time"
)

// Backoff produces jittered exponential retry delays under a total
// budget. It replaces fixed retry counts: callers keep retrying while
// Next returns ok, and the budget — wall-clock time spent since the
// first attempt — is what bounds the storm, so fast failures (connection
// refused) get many cheap attempts while slow failures (timeouts) get
// few. Jitter is deterministic per seed, so tests replay exact
// schedules.
type Backoff struct {
	initial time.Duration
	max     time.Duration
	jitter  float64 // fraction of the delay randomized, in [0, 1]
	budget  time.Duration
	rng     uint64
	now     func() time.Time

	started time.Time
	next    time.Duration
	n       int
}

// NewBackoff builds a backoff schedule: delays start at initial and
// double up to max, each jittered by ±jitter/2 of its value; Next
// refuses once budget wall-clock time has elapsed since the first call.
// Non-positive arguments select defaults (50ms initial, 2s max, 0.2
// jitter, 5s budget).
func NewBackoff(initial, max time.Duration, jitter float64, budget time.Duration, seed int64) *Backoff {
	if initial <= 0 {
		initial = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	if max < initial {
		max = initial
	}
	if jitter <= 0 || jitter > 1 {
		jitter = 0.2
	}
	if budget <= 0 {
		budget = 5 * time.Second
	}
	return &Backoff{initial: initial, max: max, jitter: jitter, budget: budget,
		rng: splitmix64(uint64(seed)), next: initial, now: time.Now}
}

// Remaining returns the budget left (0 when exhausted).
func (b *Backoff) Remaining() time.Duration {
	if b.started.IsZero() {
		return b.budget
	}
	rem := b.budget - b.now().Sub(b.started)
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Next returns the delay to sleep before the next retry, or ok=false
// when the budget is exhausted. The first call starts the budget clock.
func (b *Backoff) Next() (time.Duration, bool) {
	if b.started.IsZero() {
		b.started = b.now()
	} else if b.now().Sub(b.started) >= b.budget {
		return 0, false
	}
	d := b.next
	// Jitter: d * (1 - jitter/2 + jitter*u) for u in [0, 1).
	b.rng = splitmix64(b.rng)
	u := float64(b.rng>>11) / float64(1<<53)
	d = time.Duration(float64(d) * (1 - b.jitter/2 + b.jitter*u))
	b.next *= 2
	if b.next > b.max {
		b.next = b.max
	}
	b.n++
	return d, true
}
