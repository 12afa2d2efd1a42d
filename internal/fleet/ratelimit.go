package fleet

import (
	"math"
	"sync"
	"time"
)

// RateLimiter is the router's per-client admission control: a classic
// token bucket per client key (X-Client-ID header when present, else
// the remote host), refilled continuously at Rate tokens/second up to
// Burst. A denied request gets the time until its next token, which the
// HTTP layer rounds up into a Retry-After header — so one greedy client
// backs off instead of starving the fleet's queues for everyone.
type RateLimiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
	// maxClients bounds the bucket map; past it, stale (fully refilled)
	// buckets are dropped — a full bucket is indistinguishable from a
	// brand-new one, so eviction never grants extra tokens.
	maxClients int
	now        func() time.Time // injectable for tests
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter granting rate requests/second with
// the given burst (<= 0 selects a burst of max(1, rate)). A rate <= 0
// disables limiting: Allow always grants.
func NewRateLimiter(rate, burst float64) *RateLimiter {
	if burst <= 0 {
		burst = math.Max(1, rate)
	}
	return &RateLimiter{
		rate:       rate,
		burst:      burst,
		buckets:    make(map[string]*bucket),
		maxClients: 16384,
		now:        time.Now,
	}
}

// Allow charges one token to the client key. When denied, retryAfter is
// the wait until the bucket holds a full token again.
func (l *RateLimiter) Allow(key string) (ok bool, retryAfter time.Duration) {
	return l.AllowN(key, 1)
}

// AllowN charges n tokens at once (a batch of n specs is n requests'
// worth of admission). The charge is all-or-nothing.
func (l *RateLimiter) AllowN(key string, n int) (ok bool, retryAfter time.Duration) {
	if l == nil || l.rate <= 0 {
		return true, 0
	}
	need := math.Min(float64(n), l.burst) // a burst-sized charge must stay satisfiable
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= l.maxClients {
			l.evictLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+float64(now.Sub(b.last).Seconds()*l.rate))
		b.last = now
	}
	if b.tokens >= need {
		b.tokens -= need
		return true, 0
	}
	return false, time.Duration((need - b.tokens) / l.rate * float64(time.Second))
}

// evictLocked drops buckets that have fully refilled (idle clients);
// the caller holds l.mu.
func (l *RateLimiter) evictLocked(now time.Time) {
	for k, b := range l.buckets {
		if math.Min(l.burst, b.tokens+float64(now.Sub(b.last).Seconds()*l.rate)) >= l.burst {
			delete(l.buckets, k)
		}
	}
}
