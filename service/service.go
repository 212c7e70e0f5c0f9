// Package service turns the HERO-Sign batch engine into a concurrent
// signing service: a request coalescer collects individual sign / verify /
// keygen submissions into GPU-sized batches (size threshold or deadline,
// whichever fires first), a shard router spreads the flushed batches over
// per-backend worker pools with weighted least-outstanding-work dispatch,
// and bounded admission control sheds load once the queues fill. The
// structural model is hierarchical: pluggable backends below (simulated GPU
// devices, the real-CPU lane engine, later remote workers), per-backend
// pools above them, a shard router on top, a front end (HTTP/JSON, see
// Handler) above everything.
//
// All work enters through one call, Submit: a Request names the job kind
// and key domain and carries one Item per message, pair or seed, each with
// its own deadline and tenant. A single item is admitted on its own;
// several are admitted all-or-nothing. Sign, Verify and KeyGen are blocking
// helpers over Submit, and every HTTP endpoint is a thin adapter onto it.
//
// Each shard owns its own keypair (derived deterministically from the
// service master key); the router maps key IDs to shards, so a single
// service signs under several key domains at once.
//
// Signatures produced through the service are byte-identical to the
// package-level Sign — coalescing, sharding and backend choice change
// scheduling, never bytes.
package service

import (
	"context"
	"crypto/rand"
	"fmt"
	"slices"
	"sync"
	"time"

	"herosign/internal/core"
	"herosign/internal/gpu/device"
	"herosign/internal/spx"
	"herosign/internal/spx/params"
)

// Aliases so service callers don't need the internal packages.
type (
	Params     = params.Params
	Device     = device.Device
	PublicKey  = spx.PublicKey
	PrivateKey = spx.PrivateKey
	Features   = core.Features
)

// Config collects the service construction parameters. Zero values select
// the defaults documented per field; use New with Options rather than
// filling this in directly.
type Config struct {
	Params *Params // default SPHINCS+-128f
	// Key is shard 0's keypair and the root of the per-shard key
	// derivation. Default: a fresh key from crypto/rand.
	Key *PrivateKey
	// Devices become one simulated-GPU backend per entry, built with the
	// engine knobs below. Backends are appended after them. With neither
	// set, the default is one RTX 4090 backend.
	Devices  []*Device
	Backends []Backend

	// Shards is the number of key domains; backends distribute round-robin
	// across them. Zero selects one shard (every backend serves one key).
	Shards int

	// QueueLimit caps each shard's admitted-but-unresolved messages
	// (coalescing, queued or executing). Zero is unbounded; AutoQueueLimit
	// derives the cap from the shard's backend capacities.
	QueueLimit int
	// GlobalQueueLimit caps the whole service the same way.
	GlobalQueueLimit int
	// ShedPolicy selects what an over-limit shard does with the overflow
	// (default RejectNewest).
	ShedPolicy ShedPolicy
	// TenantRate enables per-tenant fair queuing: each API key's admitted
	// messages are charged against its own token bucket refilling at
	// TenantRate messages/s, so a hot tenant exhausts its bucket instead of
	// the shard queue. Zero disables rate limiting; per-tenant accounting in
	// Stats stays on either way.
	TenantRate float64
	// TenantBurst caps each tenant's bucket (zero derives one second of
	// TenantRate, floored at 8).
	TenantBurst int
	// DrainDeadline bounds how long Close waits for queued batches. Zero
	// waits for a full drain; past the deadline, not-yet-started batches
	// resolve ErrClosed.
	DrainDeadline time.Duration

	// FleetSecret, when non-empty, requires every request at the HTTP
	// front end to carry a valid shared-secret authenticator (see
	// FleetAuth): the configuration a leaf node runs with so only its own
	// fleet's front end can reach it. Unauthenticated requests are
	// rejected 401 and counted in Stats.AuthRejected.
	FleetSecret string
	// DynamicMembership allows constructing the service with zero
	// backends and resizing it later through AddBackend/RemoveBackend —
	// the shape of a fleet front end whose leaves join and leave at
	// runtime. While no backend is routable, submissions fail with
	// ErrNoBackends (503 on the HTTP front end).
	DynamicMembership bool

	// MaxBatch is the size-triggered flush threshold. Zero aligns it with
	// the engine's SubBatch (64 by default) so a flushed batch maps onto
	// whole launch groups.
	MaxBatch int
	// FlushDeadline bounds how long a lone request waits before its batch
	// flushes anyway. Zero selects 2ms.
	FlushDeadline time.Duration

	Features Features // engine feature set; zero value is upgraded to the full HERO stack
	SubBatch int      // engine launch-group size; zero selects the engine default (64)
	Streams  int      // engine stream count; zero selects the engine default

	baselineFeatures bool // set by WithFeatures so a zero Features can mean "baseline"
}

// Option configures New.
type Option func(*Config)

// WithParams selects the SPHINCS+ parameter set.
func WithParams(p *Params) Option { return func(c *Config) { c.Params = p } }

// WithKey installs the service master key: shard 0 signs under it and
// further shard keys derive from it (default: freshly generated).
func WithKey(sk *PrivateKey) Option { return func(c *Config) { c.Key = sk } }

// WithDevices adds one simulated-GPU backend per device entry, configured
// with the service engine knobs. Repeating a device adds a second backend
// sharing its cached, tuned signer.
func WithDevices(devs ...*Device) Option {
	return func(c *Config) { c.Devices = append(c.Devices, devs...) }
}

// WithBackends registers pre-built backends (for example NewCPURefBackend,
// or a custom implementation) alongside any device backends.
func WithBackends(bs ...Backend) Option {
	return func(c *Config) { c.Backends = append(c.Backends, bs...) }
}

// WithShards splits the service into n key domains; backends distribute
// round-robin across them. n must not exceed the backend count.
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithQueueLimit bounds each shard's admitted-but-unresolved messages
// (AutoQueueLimit derives the bound from backend capacities; 0 means
// unbounded). Past the bound, submits fail with ErrOverloaded.
func WithQueueLimit(n int) Option { return func(c *Config) { c.QueueLimit = n } }

// WithGlobalQueueLimit bounds the whole service's admitted-but-unresolved
// messages the same way.
func WithGlobalQueueLimit(n int) Option { return func(c *Config) { c.GlobalQueueLimit = n } }

// WithShedPolicy selects the overload behavior (default RejectNewest).
func WithShedPolicy(p ShedPolicy) Option { return func(c *Config) { c.ShedPolicy = p } }

// WithTenantRate enables per-tenant fair queuing: each API key's admitted
// messages are charged against its own token bucket refilling at rate
// messages/s, so one hot tenant runs out of tokens (429, Scope "tenant")
// before it can fill a shard queue and starve its neighbors. Zero (the
// default) disables rate limiting; per-tenant accounting in Stats stays on
// either way.
func WithTenantRate(rate float64) Option { return func(c *Config) { c.TenantRate = rate } }

// WithTenantBurst caps each tenant's token bucket (default: one second of
// TenantRate, floored at 8). A single batch larger than its tenant's burst
// can never be admitted and fails with ErrBatchTooLarge.
func WithTenantBurst(n int) Option { return func(c *Config) { c.TenantBurst = n } }

// WithDrainDeadline bounds how long Close waits for queued batches before
// abandoning them (their futures resolve ErrClosed). Zero waits forever.
func WithDrainDeadline(d time.Duration) Option { return func(c *Config) { c.DrainDeadline = d } }

// WithFleetSecret requires fleet authentication on the HTTP front end:
// every request must carry a valid X-Herosign-Fleet-Auth header derived
// from the shared secret, or it is rejected 401 (counted in /v1/stats as
// auth_rejected). This is a leaf node's posture; a front end keeps its
// /v1/* public and protects only the membership endpoints.
func WithFleetSecret(secret string) Option { return func(c *Config) { c.FleetSecret = secret } }

// WithDynamicMembership lets the service start with zero backends and grow
// or shrink at runtime via AddBackend/RemoveBackend — the fleet front end
// whose leaves join and leave through the membership registry. While no
// backend is routable, submissions fail ErrNoBackends (503 over HTTP).
func WithDynamicMembership() Option { return func(c *Config) { c.DynamicMembership = true } }

// WithMaxBatch sets the size-triggered flush threshold.
func WithMaxBatch(n int) Option { return func(c *Config) { c.MaxBatch = n } }

// WithFlushDeadline sets the coalescing deadline.
func WithFlushDeadline(d time.Duration) Option { return func(c *Config) { c.FlushDeadline = d } }

// WithFeatures overrides the engine optimization set (default: the full
// HERO-Sign stack; pass core.Baseline()-equivalent zero Features for the
// TCAS-style baseline).
func WithFeatures(f Features) Option {
	return func(c *Config) { c.Features = f; c.baselineFeatures = true }
}

// WithSubBatch sets the engine launch-group granularity.
func WithSubBatch(n int) Option { return func(c *Config) { c.SubBatch = n } }

// WithStreams sets the engine stream count.
func WithStreams(n int) Option { return func(c *Config) { c.Streams = n } }

// shardBatchers are one shard's per-kind coalescers.
type shardBatchers struct {
	sign, verify, keygen *batcher
}

func (sb *shardBatchers) byKind(k Kind) *batcher {
	switch k {
	case KindSign:
		return sb.sign
	case KindVerify:
		return sb.verify
	default:
		return sb.keygen
	}
}

// Service is the concurrent request-coalescing signing service.
type Service struct {
	cfg      Config
	router   *router
	batchers []*shardBatchers // indexed by shard id
	tenants  *tenantRegistry
	auth     *FleetAuth // non-nil when FleetSecret is configured

	hookMu     sync.Mutex
	statsHooks []func(*Stats)

	start time.Time
}

// New builds a Service: it resolves defaults, builds (or reuses) one tuned
// signer per distinct device backend, derives the shard keys, starts the
// per-backend pools and the per-shard coalescers.
func New(opts ...Option) (*Service, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Params == nil {
		cfg.Params = params.SPHINCSPlus128f
	}
	if cfg.Key == nil {
		sk, err := spx.GenerateKey(cfg.Params)
		if err != nil {
			return nil, err
		}
		cfg.Key = sk
	}
	if cfg.Features == (Features{}) && !cfg.baselineFeatures {
		cfg.Features = core.AllFeatures()
	}

	backends := make([]Backend, 0, len(cfg.Devices)+len(cfg.Backends))
	engineCfg := core.Config{Features: cfg.Features, SubBatch: cfg.SubBatch, Streams: cfg.Streams}
	for _, d := range cfg.Devices {
		backends = append(backends, newDeviceBackend(d, engineCfg))
	}
	backends = append(backends, cfg.Backends...)
	if len(backends) == 0 && !cfg.DynamicMembership {
		d, err := device.ByName("RTX 4090")
		if err != nil {
			return nil, err
		}
		backends = append(backends, newDeviceBackend(d, engineCfg))
	}

	rt, err := newRouter(routerConfig{
		params: cfg.Params, key: cfg.Key, backends: backends,
		shards: cfg.Shards, queueLimit: cfg.QueueLimit, globalLimit: cfg.GlobalQueueLimit,
		policy: cfg.ShedPolicy, drain: cfg.DrainDeadline, dynamic: cfg.DynamicMembership,
	})
	if err != nil {
		return nil, err
	}
	if cfg.MaxBatch == 0 {
		// Align the flush threshold with the largest preferred batch in the
		// fleet (for device backends, the engine launch group) so a full
		// flushed batch maps onto whole execution units. Backends without a
		// hint fall back to the engine default.
		best := 0
		for _, p := range rt.pools {
			if h, ok := p.backend.(BatchHinter); ok {
				if n := h.PreferredBatch(); n > best {
					best = n
				}
			}
		}
		if best <= 0 {
			best = 64
		}
		cfg.MaxBatch = best
	}
	s := &Service{
		cfg: cfg, router: rt,
		tenants: newTenantRegistry(cfg.TenantRate, cfg.TenantBurst),
		start:   time.Now(),
	}
	if cfg.FleetSecret != "" {
		s.auth = NewFleetAuth(cfg.FleetSecret)
	}
	for _, sh := range rt.shards {
		sh := sh
		flush := func(kind Kind, reqs []*request) {
			if err := rt.dispatch(sh, &batchJob{kind: kind, reqs: reqs}); err != nil {
				for _, r := range reqs {
					r.resolve(Result{}, err)
				}
			}
		}
		s.batchers = append(s.batchers, &shardBatchers{
			sign:   newBatcher(KindSign, cfg.MaxBatch, cfg.FlushDeadline, flush),
			verify: newBatcher(KindVerify, cfg.MaxBatch, cfg.FlushDeadline, flush),
			keygen: newBatcher(KindKeyGen, cfg.MaxBatch, cfg.FlushDeadline, flush),
		})
	}
	return s, nil
}

// Params returns the service parameter set.
func (s *Service) Params() *Params { return s.cfg.Params }

// PublicKey returns shard 0's public key — the master key domain. Use
// Shards for the full key catalog.
func (s *Service) PublicKey() *PublicKey { return &s.router.shards[0].key.PublicKey }

// ShardInfo describes one key domain.
type ShardInfo struct {
	ID        int
	KeyID     string
	PublicKey *PublicKey
	Backends  []string
}

// Shards lists the service's key domains and the backends serving each.
func (s *Service) Shards() []ShardInfo {
	out := make([]ShardInfo, 0, len(s.router.shards))
	for _, sh := range s.router.shards {
		info := ShardInfo{ID: sh.id, KeyID: sh.keyID, PublicKey: &sh.key.PublicKey}
		for _, p := range sh.poolList() {
			info.Backends = append(info.Backends, p.backend.Name())
		}
		out = append(out, info)
	}
	return out
}

// AddBackend warms b against a shard key and adds it to the routing set of
// a running service — the admit half of dynamic fleet membership. The
// backend starts receiving flushed batches as soon as Warm succeeds; its
// Weight integrates into dispatch like any construction-time backend's.
func (s *Service) AddBackend(b Backend) error { return s.router.addBackend(b) }

// RemoveBackend retires b from a running service: it immediately stops
// receiving new batches, its queued batches drain (bounded by the drain
// deadline), and it is closed. Unknown backends return an error.
func (s *Service) RemoveBackend(b Backend) error { return s.router.removeBackend(b) }

// FleetAuth returns the service's fleet authenticator, nil unless
// WithFleetSecret configured one. Front-end composition code uses it to
// protect extra endpoints (the membership registry) with the same secret
// and replay cache.
func (s *Service) FleetAuth() *FleetAuth { return s.auth }

// AddStatsHook registers fn to run on every Stats snapshot just before it
// is returned — how composition layers (the membership registry, an
// external authenticator) fold their own counters and event logs into
// /v1/stats without the service importing them.
func (s *Service) AddStatsHook(fn func(*Stats)) {
	s.hookMu.Lock()
	s.statsHooks = append(s.statsHooks, fn)
	s.hookMu.Unlock()
}

// PublicKeyFor resolves a key ID to its shard's public key.
func (s *Service) PublicKeyFor(keyID string) (*PublicKey, error) {
	sh, ok := s.router.byKeyID[keyID]
	if !ok {
		return nil, ErrUnknownKey
	}
	return &sh.key.PublicKey, nil
}

// Request is one submission to Submit: Items of one Kind under one key
// domain.
type Request struct {
	Kind Kind
	// KeyID names the key domain. "" routes to the least-loaded shard,
	// except for verification on a multi-shard service, where each item is
	// checked against every shard's key. For keygen it only picks the
	// shard that runs the derivation.
	KeyID string
	Items []Item
}

// Item is one unit of work and its scheduling attributes. Sign reads Msg,
// verify reads Msg and Sig, keygen reads Seed (nil draws fresh seeds from
// crypto/rand).
type Item struct {
	Msg, Sig []byte
	Seed     *core.SeedTriple
	// Deadline is the client's absolute completion deadline (zero = none).
	// Admitted work flushes earliest-deadline-first and is dropped
	// unexecuted with ErrDeadlineExceeded if it expires in the queue.
	Deadline time.Time
	// Tenant is the API key the work is charged to ("" = DefaultTenant).
	// With WithTenantRate configured, each tenant's admissions draw from its
	// own token bucket; per-tenant counters appear in Stats either way.
	Tenant string
}

// Submit queues req's items for coalesced execution and returns one future
// per item, in order. Inputs are copied before Submit returns; an empty
// request returns nil, nil.
//
// Admission follows from the number of items. A single item is admitted on
// its own: an expired deadline fails ErrDeadlineExceeded and a deadline
// nearer than the shard's estimated queue wait fails 429 (Scope
// "deadline"), both without taking a queue slot; under DropOldestDeadline
// it may shed a still-coalescing request to make room, and may itself be
// shed later. Several items are admitted all-or-nothing: either every item
// is admitted or none is and an *OverloadError is returned, so a rejected
// batch does no work and is cheap to retry. Tenant tokens are charged the
// same way, grouped per tenant. A batch that could never fit the admission
// caps or a tenant's burst fails ErrBatchTooLarge (split it). Batch members
// are pinned against shedding, and their deadlines do not pre-reject the
// batch: a member whose deadline lapses in the queue fails on its own.
//
// Verification with KeyID "" on a multi-shard service admits each item
// separately on every shard (a rate-limited tenant pays one token per
// shard). Its future resolves valid when any shard validates the pair,
// invalid only when every shard checked it, and with an error when a shard
// could not be consulted and none validated it.
//
// ctx only refuses work whose caller is already gone; admitted work runs
// whatever happens to ctx afterwards (Future.Wait takes its own).
func (s *Service) Submit(ctx context.Context, req Request) ([]*Future, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh, err := s.router.shardFor(req.KeyID)
	if err != nil {
		return nil, err
	}
	if len(req.Items) == 0 {
		return nil, nil
	}
	futs := make([]*Future, len(req.Items))
	if req.Kind == KindVerify && req.KeyID == "" && len(s.router.shards) > 1 {
		for i, it := range req.Items {
			if futs[i], err = s.verifyAnyShard(it); err != nil {
				return nil, err
			}
		}
		return futs, nil
	}
	reqs := make([]*request, len(req.Items))
	for i, it := range req.Items {
		if reqs[i], err = s.newRequest(req.Kind, it); err != nil {
			return nil, err
		}
		futs[i] = reqs[i].fut
	}
	if err := s.enqueue(sh, req.Kind, reqs); err != nil {
		return nil, err
	}
	return futs, nil
}

// newRequest copies one item's inputs into a request stamped with its
// scheduling attributes.
func (s *Service) newRequest(kind Kind, it Item) (*request, error) {
	r := &request{
		msg:      append([]byte(nil), it.Msg...),
		sig:      append([]byte(nil), it.Sig...),
		fut:      newFuture(),
		deadline: it.Deadline,
		tenant:   s.tenants.get(it.Tenant),
	}
	if kind != KindKeyGen {
		return r, nil
	}
	if seed := it.Seed; seed != nil {
		r.seed = core.SeedTriple{
			SKSeed: append([]byte(nil), seed.SKSeed...),
			SKPRF:  append([]byte(nil), seed.SKPRF...),
			PKSeed: append([]byte(nil), seed.PKSeed...),
		}
		return r, nil
	}
	n := s.cfg.Params.N
	buf := make([]byte, 3*n)
	if _, err := rand.Read(buf); err != nil {
		return nil, err
	}
	r.seed = core.SeedTriple{SKSeed: buf[:n], SKPRF: buf[n : 2*n], PKSeed: buf[2*n:]}
	return r, nil
}

// verifyAnyShard submits one pair to every shard and returns a master
// future carrying the any-shard verdict. The per-shard requests share one
// copy of the buffers (never mutated).
func (s *Service) verifyAnyShard(it Item) (*Future, error) {
	base, err := s.newRequest(KindVerify, it)
	if err != nil {
		return nil, err
	}
	subs := make([]*Future, 0, len(s.router.shards))
	var submitErr error
	for _, sh := range s.router.shards {
		r := *base
		r.fut = newFuture()
		if err := s.enqueue(sh, KindVerify, []*request{&r}); err != nil {
			if submitErr == nil {
				submitErr = err
			}
			continue
		}
		subs = append(subs, r.fut)
	}
	if len(subs) == 0 {
		return nil, submitErr
	}
	master := newFuture()
	go func() {
		var lastRes Result
		var waitErr error
		sawVerdict := false
		for _, fut := range subs {
			<-fut.Done()
			switch {
			case fut.err == nil && fut.res.Valid:
				master.resolve(fut.res, nil)
				return
			case fut.err == nil:
				lastRes, sawVerdict = fut.res, true
			case waitErr == nil:
				waitErr = fut.err
			}
		}
		switch {
		case submitErr != nil:
			master.resolve(Result{}, submitErr) // a shard was never consulted
		case waitErr != nil:
			master.resolve(Result{}, waitErr) // a consulted shard failed
		case sawVerdict:
			master.resolve(lastRes, nil) // every shard says invalid
		default:
			master.resolve(Result{}, ErrClosed)
		}
	}()
	return master, nil
}

// enqueue admits reqs into the shard and hands them to its coalescer. When
// the coalescer closes part-way, the never-queued tail is refunded (slots,
// tenant tokens and counters) and ErrClosed returned; members already
// queued resolve through the drain.
func (s *Service) enqueue(sh *shard, kind Kind, reqs []*request) error {
	if err := s.admit(sh, kind, reqs); err != nil {
		return err
	}
	b := s.batchers[sh.id].byKind(kind)
	for i, r := range reqs {
		if err := b.submit(r); err != nil {
			for _, r := range reqs[i:] {
				r.release()
				r.release = nil
				// resolve will not run for these, so undo admit's tenant
				// accounting here.
				t := r.tenant
				t.queued.Add(-1)
				t.admitted.Add(-1)
				if t.bucket != nil {
					t.bucket.refund(1)
				}
				r.tenant = nil
			}
			return err
		}
	}
	return nil
}

// admit charges reqs against their tenants' token buckets and the global
// and shard admission gates, with Submit's semantics: a lone request is
// first pre-rejected on its deadline and may shed to make room; several
// requests must fit the caps and their tenants' bursts, and are admitted
// all-or-nothing and pinned. On success each request carries a release hook
// that refunds its slots when its future resolves; on rejection nothing
// stays charged.
func (s *Service) admit(sh *shard, kind Kind, reqs []*request) error {
	now := time.Now()
	rt := s.router
	k := int64(len(reqs))
	alone := k == 1
	if r := reqs[0]; alone && !r.deadline.IsZero() {
		if !r.deadline.After(now) {
			r.tenant.rejectedDeadline.Add(1)
			return ErrDeadlineExceeded
		}
		if wait := sh.queueWait(); wait > 0 && now.Add(wait).After(r.deadline) {
			r.tenant.rejectedDeadline.Add(1)
			return &OverloadError{Scope: "deadline", RetryAfter: wait}
		}
	}
	shardCap, globalCap := sh.gate.cap(), rt.global.cap()
	if (shardCap > 0 && k > shardCap) || (globalCap > 0 && k > globalCap) {
		return fmt.Errorf("%w: %d items against caps shard=%d global=%d",
			ErrBatchTooLarge, k, shardCap, globalCap)
	}

	// Group by tenant for all-or-nothing bucket charging.
	var states []*tenantState
	var counts []int64
	for _, r := range reqs {
		j := slices.Index(states, r.tenant)
		if j < 0 {
			j = len(states)
			states = append(states, r.tenant)
			counts = append(counts, 0)
		}
		counts[j]++
	}
	for j, t := range states {
		if t.bucket != nil && float64(counts[j]) > t.bucket.burst {
			return fmt.Errorf("%w: %d items against tenant %q burst %d",
				ErrBatchTooLarge, counts[j], t.name, int(t.bucket.burst))
		}
	}
	if t, wait := chargeCounts(states, counts, now); t != nil {
		t.rejectedRate.Add(1)
		return &OverloadError{Scope: "tenant", Tenant: t.name, RetryAfter: wait}
	}
	reject := func(scope string, retryAfter time.Duration) error {
		refundCounts(states, counts)
		for _, t := range states {
			t.rejectedOverload.Add(1)
		}
		return &OverloadError{Scope: scope, RetryAfter: retryAfter}
	}
	shed := alone && s.cfg.ShedPolicy == DropOldestDeadline
	if !rt.global.tryAcquire(k) && !(shed && s.shedOne(sh, kind) && rt.global.tryAcquire(k)) {
		rt.rejectedGlobal.Add(1)
		return reject("global", rt.globalRetryAfter())
	}
	if !sh.gate.tryAcquire(k) && !(shed && s.shedOne(sh, kind) && sh.gate.tryAcquire(k)) {
		rt.global.release(k)
		sh.rejected.Add(1)
		return reject("shard", sh.retryAfter())
	}

	release := func() {
		sh.gate.release(1)
		rt.global.release(1)
	}
	for _, r := range reqs {
		r.release, r.enqueued, r.pinned = release, now, !alone
		r.tenant.queued.Add(1)
		r.tenant.admitted.Add(1)
	}
	return nil
}

// shedOne evicts the still-coalescing request of the same kind with the
// nearest client deadline (oldest arrival when none carries one) from the
// shard, resolving it with ErrOverloaded; its release refunds the slots the
// caller is about to claim.
func (s *Service) shedOne(sh *shard, kind Kind) bool {
	old := s.batchers[sh.id].byKind(kind).evictNearestDeadline()
	if old == nil {
		return false
	}
	sh.shed.Add(1)
	if old.tenant != nil {
		old.tenant.shed.Add(1)
	}
	old.resolve(Result{}, &OverloadError{Scope: "shard", RetryAfter: sh.retryAfter()})
	return true
}

// itemsOf pairs msgs with sigs (nil for sign) into default-scheduled items.
func itemsOf(msgs, sigs [][]byte) []Item {
	items := make([]Item, len(msgs))
	for i, m := range msgs {
		items[i].Msg = m
		if sigs != nil {
			items[i].Sig = sigs[i]
		}
	}
	return items
}

// SubmitSignBatch submits one sign item per message.
//
// Deprecated: use Submit. Kept only because the frozen perfbench ladder
// calls it; drop it with the next benchmark change.
func (s *Service) SubmitSignBatch(keyID string, msgs [][]byte) ([]*Future, error) {
	return s.Submit(context.Background(), Request{Kind: KindSign, KeyID: keyID, Items: itemsOf(msgs, nil)})
}

// SubmitVerifyBatchKey submits one verify item per (message, signature)
// pair.
//
// Deprecated: use Submit. Kept only because the frozen perfbench ladder
// calls it; drop it with the next benchmark change.
func (s *Service) SubmitVerifyBatchKey(keyID string, msgs, sigs [][]byte) ([]*Future, error) {
	if len(msgs) != len(sigs) {
		return nil, fmt.Errorf("service: %d messages but %d signatures", len(msgs), len(sigs))
	}
	return s.Submit(context.Background(), Request{Kind: KindVerify, KeyID: keyID, Items: itemsOf(msgs, sigs)})
}

// submitWait submits req and waits for every item, failing on the first
// error.
func (s *Service) submitWait(ctx context.Context, req Request) ([]Result, error) {
	futs, err := s.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	res := make([]Result, len(futs))
	for i, fut := range futs {
		if res[i], err = fut.Wait(ctx); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Sign submits msg and waits for the coalesced signature.
func (s *Service) Sign(ctx context.Context, msg []byte) ([]byte, error) {
	res, err := s.submitWait(ctx, Request{Kind: KindSign, Items: []Item{{Msg: msg}}})
	if err != nil {
		return nil, err
	}
	return res[0].Sig, nil
}

// Verify submits (msg, sig) and waits for the verdict (any shard's key on a
// multi-shard service).
func (s *Service) Verify(ctx context.Context, msg, sig []byte) (bool, error) {
	res, err := s.submitWait(ctx, Request{Kind: KindVerify, Items: []Item{{Msg: msg, Sig: sig}}})
	if err != nil {
		return false, err
	}
	return res[0].Valid, nil
}

// KeyGen derives one fresh key pair on the fleet.
func (s *Service) KeyGen(ctx context.Context) (*PrivateKey, error) {
	res, err := s.submitWait(ctx, Request{Kind: KindKeyGen, Items: []Item{{}}})
	if err != nil {
		return nil, err
	}
	return res[0].Key, nil
}

// Close flushes pending requests, drains the router and waits for every
// in-flight future to resolve — or, with a drain deadline configured,
// abandons not-yet-started batches once it expires (their futures resolve
// ErrClosed). Submits after Close return ErrClosed.
func (s *Service) Close() error {
	for _, sb := range s.batchers {
		sb.sign.close()
		sb.verify.close()
		sb.keygen.close()
	}
	// Batches flushed by close are already queued; the router drains them
	// before its pools exit.
	s.router.close()
	return nil
}
