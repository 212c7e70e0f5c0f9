// Package remote turns a herosign-serve instance into a service.Backend:
// RunBatch proxies flushed batches over HTTP to a leaf server's
// /v1/sign/batch (plus /v1/verify/batch and /v1/keygen), so a front-end
// shard router fans out across a fleet of leaf servers, each of which is
// itself a sharded fleet — a two-level fleet-of-fleets.
//
// A Fleet wraps one group of leaf URLs and gives each leaf:
//
//   - a health checker that probes the leaf's /v1/stats and feeds the
//     router's dispatch weight with an EWMA of *observed* sigs/s between
//     probes (not a static capacity hint);
//   - outlier ejection — a leaf whose probes fail, whose request error
//     rate degrades, or whose latency z-scores away from its siblings is
//     quarantined (the router stops dispatching to it) and probed back in
//     with half-open trials under exponential-backoff quarantine;
//   - failover — a retryable error (connection refused, 5xx, 429) retries
//     the batch on a sibling replica of the same key domain, so a dying
//     leaf causes rerouting, not client-visible errors; sign, verify and
//     keygen batches all take this one attempt → classify → failover path;
//   - connection pooling, per-attempt timeouts, and clean shutdown: the
//     router closes each Backend after its pool drains, and the last close
//     stops the probe loop and releases idle connections.
//
// Leaves must serve the same key domains as the front end: start every
// leaf with the front end's master key (and shard layout) so the
// deterministic per-shard key derivation lines up; Warm verifies the
// leaf's /v1/keys catalog actually contains the shard key and fails fast
// otherwise. Signatures proxied through a Fleet are byte-identical to
// local signing — the wire format carries opaque batches, never key
// material for signing.
package remote

import (
	"crypto/tls"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"herosign/service"
)

// Options tunes a Fleet. The zero value selects the documented defaults.
type Options struct {
	// ProbeInterval is the health checker's period (default 500ms);
	// ProbeTimeout bounds one /v1/stats probe (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// RequestTimeout bounds one proxied batch attempt (default 60s — leaf
	// admission control, not the transport, is the backpressure mechanism).
	RequestTimeout time.Duration
	// MaxAttempts caps how many distinct leaves one batch may try across
	// failover (default 3, clamped to the fleet size).
	MaxAttempts int

	// EjectProbeFailures is the consecutive failed probes that quarantine
	// a leaf (default 1: an unreachable leaf is ejected within one probe
	// interval). EjectRequestFailures is the consecutive hard request
	// errors that do the same without waiting for a probe (default 2).
	EjectProbeFailures   int
	EjectRequestFailures int
	// ErrorRateLimit ejects a leaf whose windowed request error rate
	// exceeds it (default 0.5, evaluated per probe tick over >= 8 sends).
	ErrorRateLimit float64
	// LatencyZLimit ejects a leaf whose smoothed batch latency z-scores
	// this far above its siblings' (default 3; negative disables; needs
	// >= 3 healthy leaves to be meaningful).
	LatencyZLimit float64

	// BaseQuarantine is the first ejection's quarantine (default 1s); each
	// re-ejection doubles it up to MaxQuarantine (default 30s). After the
	// quarantine a successful probe moves the leaf to half-open: one trial
	// batch at a time, success restores it, failure re-ejects.
	BaseQuarantine time.Duration
	MaxQuarantine  time.Duration

	// EWMAAlpha smooths the observed-sigs/s weight and latency estimates
	// (default 0.3).
	EWMAAlpha float64

	// MinWeight floors the dispatch weight of a non-ejected leaf (default
	// 0.5 sigs/s). Without it, a leaf that was idle between probes reports
	// zero observed sigs/s and the router would never route to it again —
	// idle-but-healthy must stay routable.
	MinWeight float64

	// Secret arms fleet authentication on every outgoing request (proxy
	// calls, health probes, key-domain verification, membership traffic):
	// each request carries an HMAC shared-secret header the leaf verifies
	// with a constant-time compare and replay-window nonce (see
	// service.FleetAuth). Must match the leaves' -fleet-secret.
	Secret string
	// TLSConfig, when set, is used for https:// leaf URLs — pin the
	// fleet's CA (RootCAs) and present a client certificate
	// (Certificates) for mutual TLS. Stacks with Secret.
	TLSConfig *tls.Config
	// WrapTransport, when set, wraps the fleet's HTTP transport — the
	// fault-injection hook the chaos suite uses to put latency, resets
	// and blackholes between the front end and its leaves.
	WrapTransport func(http.RoundTripper) http.RoundTripper
}

func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.EjectProbeFailures <= 0 {
		o.EjectProbeFailures = 1
	}
	if o.EjectRequestFailures <= 0 {
		o.EjectRequestFailures = 2
	}
	if o.ErrorRateLimit <= 0 {
		o.ErrorRateLimit = 0.5
	}
	if o.LatencyZLimit == 0 {
		o.LatencyZLimit = 3
	}
	if o.BaseQuarantine <= 0 {
		o.BaseQuarantine = time.Second
	}
	if o.MaxQuarantine <= 0 {
		o.MaxQuarantine = 30 * time.Second
	}
	if o.EWMAAlpha <= 0 || o.EWMAAlpha > 1 {
		o.EWMAAlpha = 0.3
	}
	if o.MinWeight <= 0 {
		o.MinWeight = 0.5
	}
	return o
}

// Fleet is one group of leaf servers behind a shared transport and health
// checker. Backends hands out one service.Backend per leaf; register them
// with service.WithBackends on the front end.
type Fleet struct {
	opts   Options
	tr     *transport
	events *eventLog

	leafMu sync.RWMutex
	leaves []*leaf

	stop     chan struct{}
	stopOnce sync.Once
	refs     int
	refMu    sync.Mutex
}

// NewFleet builds the fleet for the leaf URLs and starts its health-probe
// loop. Each URL must be absolute (http://host:port); the leaves should be
// reachable before the front-end Service is constructed, because Warm
// fetches each leaf's key catalog to pin the shard key domain.
func NewFleet(urls []string, opts Options) (*Fleet, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("remote: at least one leaf URL is required")
	}
	f, err := newFleet(opts)
	if err != nil {
		return nil, err
	}
	for _, raw := range urls {
		l, err := f.newLeafFor(raw)
		if err != nil {
			return nil, err
		}
		f.leaves = append(f.leaves, l)
	}
	f.refs = len(f.leaves)
	go f.probeLoop()
	return f, nil
}

// NewDynamicFleet builds a fleet with no initial leaves for dynamic
// membership: leaves join via AddLeaf (typically through a Registrar) and
// depart via RemoveLeaf without restarting the front end. Unlike NewFleet,
// whose lifetime is reference-counted by its backends, a dynamic fleet may
// transiently hold zero members — the caller owns it and must Close it
// (Registrar.Close does this for you).
func NewDynamicFleet(opts Options) (*Fleet, error) {
	f, err := newFleet(opts)
	if err != nil {
		return nil, err
	}
	f.refs = 1 // owner reference, released by Close
	go f.probeLoop()
	return f, nil
}

func newFleet(opts Options) (*Fleet, error) {
	f := &Fleet{
		opts:   opts.withDefaults(),
		events: newEventLog(64),
		stop:   make(chan struct{}),
	}
	f.tr = newTransport(f.opts)
	return f, nil
}

func (f *Fleet) newLeafFor(raw string) (*leaf, error) {
	raw = strings.TrimSpace(raw)
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("remote: leaf URL %q must be absolute (http://host:port)", raw)
	}
	l := newLeaf(strings.TrimRight(raw, "/"), u.Host)
	l.onEvent = f.record
	return l, nil
}

// leafList is the read path's snapshot of the membership: probe loop,
// sibling picks and stats all iterate it without holding the lock.
func (f *Fleet) leafList() []*leaf {
	f.leafMu.RLock()
	defer f.leafMu.RUnlock()
	return f.leaves
}

// maxAttempts clamps the configured attempt cap to the live fleet size at
// call time — a construction-time clamp would pin a dynamic fleet that
// started small to one attempt forever.
func (f *Fleet) maxAttempts() int {
	n := len(f.leafList())
	m := f.opts.MaxAttempts
	if m > n {
		m = n
	}
	if m < 1 {
		m = 1
	}
	return m
}

// AddLeaf admits a new leaf into the fleet and returns its Backend, ready
// to hand to Service.AddBackend (whose Warm verifies the key domain). The
// backend holds a fleet reference released by its Close.
func (f *Fleet) AddLeaf(rawURL string) (*Backend, error) {
	l, err := f.newLeafFor(rawURL)
	if err != nil {
		return nil, err
	}
	f.leafMu.Lock()
	for _, existing := range f.leaves {
		if existing.url == l.url {
			f.leafMu.Unlock()
			return nil, fmt.Errorf("remote: leaf %s is already a fleet member", l.url)
		}
	}
	next := make([]*leaf, len(f.leaves), len(f.leaves)+1)
	copy(next, f.leaves)
	f.leaves = append(next, l)
	f.leafMu.Unlock()
	f.refMu.Lock()
	f.refs++
	f.refMu.Unlock()
	return &Backend{f: f, leaf: l}, nil
}

// RemoveLeaf drops a leaf from the membership so probes stop and it is no
// longer picked as a failover sibling. The caller still closes the
// leaf's Backend (Service.RemoveBackend does, after draining its pool).
func (f *Fleet) RemoveLeaf(b *Backend) {
	if b == nil || b.f != f {
		return
	}
	f.leafMu.Lock()
	next := make([]*leaf, 0, len(f.leaves))
	for _, l := range f.leaves {
		if l != b.leaf {
			next = append(next, l)
		}
	}
	f.leaves = next
	f.leafMu.Unlock()
}

// Backends returns one service.Backend per current leaf, in URL order. The
// router closes each backend after its pool drains; for a NewFleet-built
// fleet the last close stops the probe loop and releases pooled
// connections.
func (f *Fleet) Backends() []service.Backend {
	leaves := f.leafList()
	out := make([]service.Backend, len(leaves))
	for i, l := range leaves {
		out[i] = &Backend{f: f, leaf: l}
	}
	return out
}

// record appends a membership/health transition to the fleet's event ring.
func (f *Fleet) record(typ, url, note string) {
	f.events.add(service.FleetEvent{Time: time.Now(), Type: typ, URL: url, Note: note})
}

// Events snapshots the fleet's membership and health transition log,
// oldest first. The Registrar folds this into the front end's /v1/stats.
func (f *Fleet) Events() []service.FleetEvent {
	return f.events.snapshot()
}

// release drops one backend's reference; the last one shuts the fleet
// down. Close is also safe to call directly on an unused fleet.
func (f *Fleet) release() {
	f.refMu.Lock()
	f.refs--
	done := f.refs <= 0
	f.refMu.Unlock()
	if done {
		f.Close()
	}
}

// Close stops the probe loop and closes idle connections. Idempotent.
func (f *Fleet) Close() error {
	f.stopOnce.Do(func() {
		close(f.stop)
		f.tr.close()
	})
	return nil
}
