package service

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTenant is the accounting bucket for requests that name no API key
// (no X-API-Key header, empty Item.Tenant).
const DefaultTenant = "default"

// maxTenants bounds the tenant registry so an attacker spraying random API
// keys cannot grow service memory without bound; keys beyond the cap share
// one catch-all bucket (they are still rate-limited, just jointly).
const maxTenants = 4096

// overflowTenant is the shared catch-all past maxTenants.
const overflowTenant = "!overflow"

// tenantBucket is a token bucket: rate tokens/s refill against a burst
// cap, starting full. take is all-or-nothing and reports how long until
// the requested tokens exist when it fails — the honest Retry-After.
type tenantBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTenantBucket(rate, burst float64, now time.Time) *tenantBucket {
	return &tenantBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// take removes n tokens if available; otherwise it reports the wait until
// the deficit refills.
func (b *tenantBucket) take(n float64, now time.Time) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	wait := time.Duration((n - b.tokens) / b.rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// refund returns tokens taken for an admission that then failed a later
// gate, so a full queue does not also charge the tenant's rate.
func (b *tenantBucket) refund(n float64) {
	b.mu.Lock()
	b.tokens += n
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// tenantState is one API key's accounting: a token bucket (nil when
// per-tenant rate limiting is off) plus the counters surfaced per tenant
// in /v1/stats.
type tenantState struct {
	name   string
	bucket *tenantBucket

	queued   atomic.Int64 // admitted-but-unresolved messages right now
	admitted atomic.Int64 // messages ever admitted
	done     atomic.Int64 // messages resolved without error

	rejectedOverload atomic.Int64 // gate-full rejections (shard or global)
	rejectedRate     atomic.Int64 // token-bucket rejections
	rejectedDeadline atomic.Int64 // deadline pre-rejections at admission
	expired          atomic.Int64 // admitted work dropped once its deadline passed
	shed             atomic.Int64 // evictions by drop-oldest-deadline

	latSumUs atomic.Int64 // sum over successfully completed messages
	latMaxUs atomic.Int64
}

// complete folds one resolved request into the tenant's counters. Called
// from request.resolve for every admitted request, success or not.
func (t *tenantState) complete(err error, lat time.Duration) {
	t.queued.Add(-1)
	switch {
	case err == nil:
		t.done.Add(1)
		us := lat.Microseconds()
		t.latSumUs.Add(us)
		for {
			cur := t.latMaxUs.Load()
			if us <= cur || t.latMaxUs.CompareAndSwap(cur, us) {
				break
			}
		}
	case IsDeadlineExceeded(err):
		t.expired.Add(1)
	}
}

// tenantRegistry maps API keys to their accounting state, creating buckets
// lazily with the service's rate/burst configuration.
type tenantRegistry struct {
	rate  float64
	burst float64

	mu sync.Mutex
	m  map[string]*tenantState
}

func newTenantRegistry(rate float64, burst int) *tenantRegistry {
	b := float64(burst)
	if rate > 0 && b <= 0 {
		// Default burst: one second of rate, floored so a tenant can always
		// get at least a small batch through after an idle period.
		b = rate
		if b < 8 {
			b = 8
		}
	}
	return &tenantRegistry{rate: rate, burst: b, m: make(map[string]*tenantState)}
}

// get returns (creating if needed) the state for an API key. The empty key
// is the default tenant; keys past the registry cap share one catch-all.
func (tr *tenantRegistry) get(name string) *tenantState {
	if name == "" {
		name = DefaultTenant
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if t, ok := tr.m[name]; ok {
		return t
	}
	if len(tr.m) >= maxTenants {
		if t, ok := tr.m[overflowTenant]; ok {
			return t
		}
		name = overflowTenant
	}
	t := &tenantState{name: name}
	if tr.rate > 0 {
		t.bucket = newTenantBucket(tr.rate, tr.burst, time.Now())
	}
	tr.m[name] = t
	return t
}

// chargeCounts takes count tokens from each tenant's bucket
// all-or-nothing: on any failure everything already taken is refunded and
// the failing tenant plus its wait estimate are returned. Tenants without
// buckets (rate limiting off) always pass.
func chargeCounts(states []*tenantState, counts []int64, now time.Time) (*tenantState, time.Duration) {
	for i, t := range states {
		if t.bucket == nil {
			continue
		}
		ok, wait := t.bucket.take(float64(counts[i]), now)
		if !ok {
			for j := 0; j < i; j++ {
				if states[j].bucket != nil {
					states[j].bucket.refund(float64(counts[j]))
				}
			}
			return t, wait
		}
	}
	return nil, 0
}

// refundCounts undoes chargeCounts after a later admission gate rejected.
func refundCounts(states []*tenantState, counts []int64) {
	for i, t := range states {
		if t.bucket != nil {
			t.bucket.refund(float64(counts[i]))
		}
	}
}

// TenantStats is one API key's accounting snapshot in /v1/stats.
type TenantStats struct {
	Tenant string `json:"tenant"`

	// Queued is the tenant's admitted-but-unresolved messages right now;
	// Admitted and Done are lifetime counters.
	Queued   int64 `json:"queued"`
	Admitted int64 `json:"admitted"`
	Done     int64 `json:"done"`

	// RejectedOverload counts gate-full 429s, RejectedRate token-bucket
	// 429s, RejectedDeadline deadline pre-rejections; Expired is admitted
	// work dropped unexecuted once its deadline passed, and Shed counts
	// drop-oldest-deadline evictions.
	RejectedOverload int64 `json:"rejected_overload"`
	RejectedRate     int64 `json:"rejected_rate"`
	RejectedDeadline int64 `json:"rejected_deadline"`
	Expired          int64 `json:"expired"`
	Shed             int64 `json:"shed"`

	// AvgLatencyMs / MaxLatencyMs cover successfully completed messages,
	// submit to resolve.
	AvgLatencyMs float64 `json:"avg_latency_ms"`
	MaxLatencyMs float64 `json:"max_latency_ms"`
}

// snapshot lists every tenant's counters sorted by name.
func (tr *tenantRegistry) snapshot() []TenantStats {
	tr.mu.Lock()
	states := make([]*tenantState, 0, len(tr.m))
	for _, t := range tr.m {
		states = append(states, t)
	}
	tr.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].name < states[j].name })
	out := make([]TenantStats, 0, len(states))
	for _, t := range states {
		ts := TenantStats{
			Tenant:           t.name,
			Queued:           t.queued.Load(),
			Admitted:         t.admitted.Load(),
			Done:             t.done.Load(),
			RejectedOverload: t.rejectedOverload.Load(),
			RejectedRate:     t.rejectedRate.Load(),
			RejectedDeadline: t.rejectedDeadline.Load(),
			Expired:          t.expired.Load(),
			Shed:             t.shed.Load(),
			MaxLatencyMs:     float64(t.latMaxUs.Load()) / 1e3,
		}
		if ts.Done > 0 {
			ts.AvgLatencyMs = float64(t.latSumUs.Load()) / float64(ts.Done) / 1e3
		}
		out = append(out, ts)
	}
	return out
}
