package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"herosign/internal/spx"
	"herosign/service"
)

// Backend proxies one leaf server as a service.Backend. Construct through
// Fleet.Backends; the fleet supplies the shared transport and health
// checker.
type Backend struct {
	f    *Fleet
	leaf *leaf

	closeOnce sync.Once
}

// Name identifies the leaf in stats and results.
func (b *Backend) Name() string { return "remote(" + b.leaf.host + ")" }

// Capacity reflects the leaf's own admission cap (learned at Warm from its
// /v1/stats), so the front end's AutoQueueLimit stacks sensibly on top of
// the leaf's.
func (b *Backend) Capacity() int {
	b.leaf.mu.Lock()
	defer b.leaf.mu.Unlock()
	if b.leaf.capacity > 0 {
		return b.leaf.capacity
	}
	return 256
}

// PreferredBatch aligns the front end's flush threshold with the leaf's,
// so one proxied batch maps onto whole leaf-side flushes.
func (b *Backend) PreferredBatch() int {
	b.leaf.mu.Lock()
	defer b.leaf.mu.Unlock()
	return b.leaf.prefBatch
}

// Weight is the probe-fed EWMA of the leaf's observed sigs/s, floored at
// Options.MinWeight so an idle-but-healthy leaf stays routable (zero while
// ejected).
func (b *Backend) Weight() float64 { return b.leaf.weight(b.f.opts.MinWeight) }

// Available implements service.Availabler: the router skips this leaf's
// pool while the health checker has it quarantined.
func (b *Backend) Available() bool { return b.leaf.available() }

// Warm pins the leaf to the shard's key domain: it fetches the leaf's
// /v1/keys catalog, requires an entry whose public key is byte-identical
// to the shard key's, and seeds the dispatch weight and capacity hints
// from the leaf's /v1/stats. A leaf launched with a different master key
// (or shard layout) fails here, before any traffic is misrouted.
func (b *Backend) Warm(key *service.PrivateKey) error {
	ctx, cancel := context.WithTimeout(context.Background(), b.f.opts.ProbeTimeout)
	defer cancel()
	wantID := service.KeyID(&key.PublicKey)
	wantPub := key.PublicKey.Bytes()
	catalog, err := b.f.tr.keys(ctx, b.leaf.url)
	if err != nil {
		return fmt.Errorf("remote: warming %s: %w", b.leaf.url, err)
	}
	if catalog.Params != key.Params.Name {
		return fmt.Errorf("remote: leaf %s serves %s, front end wants %s",
			b.leaf.url, catalog.Params, key.Params.Name)
	}
	found := false
	for _, k := range catalog.Keys {
		if k.KeyID == wantID {
			if !bytes.Equal(k.PublicKey, wantPub) {
				return fmt.Errorf("remote: leaf %s key %s has a different public key (key-id collision?)",
					b.leaf.url, wantID)
			}
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("remote: leaf %s does not serve key domain %s — start the leaf with the front end's master key and shard layout",
			b.leaf.url, wantID)
	}

	st, err := b.f.tr.stats(ctx, b.leaf.url)
	if err != nil {
		return fmt.Errorf("remote: warming %s: %w", b.leaf.url, err)
	}
	var seedWeight float64
	capacity := 0
	for _, sh := range st.Shards {
		if sh.KeyID == wantID {
			seedWeight = sh.WeightSigsPerSec
			if sh.QueueLimit > 0 {
				capacity = int(sh.QueueLimit)
			}
		}
	}
	if capacity == 0 {
		capacity = 4 * st.MaxBatch
	}
	var signMsgs int64
	for _, d := range st.Devices {
		signMsgs += d.SignMsgs
	}

	l := b.leaf
	l.mu.Lock()
	l.keyID = wantID
	l.capacity = capacity
	l.prefBatch = st.MaxBatch
	if l.ewmaSigs <= 0 && seedWeight > 0 {
		l.ewmaSigs = seedWeight
	}
	l.lastSignMsgs, l.lastProbe, l.probeSeeded = signMsgs, time.Now(), true
	// A fresh (or re-) warm means the operator believes in this leaf;
	// clear any stale quarantine from a pre-startup probe race.
	l.state = stateHealthy
	l.consecProbeFail, l.consecReqFail = 0, 0
	l.mu.Unlock()
	return nil
}

// RunBatch executes one flushed batch on the fleet: the primary attempt
// goes to this backend's leaf, and retryable failures fail over to
// siblings of the same key domain.
func (b *Backend) RunBatch(ctx context.Context, key *service.PrivateKey, job *service.Job) (*service.BatchOutput, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if b.leaf.domain() == "" {
		return nil, fmt.Errorf("remote: backend %s used before Warm", b.Name())
	}
	sched := schedMeta{deadlinesMs: job.DeadlinesMs, tenants: job.Tenants}
	switch job.Kind {
	case service.KindSign:
		return b.f.runSign(ctx, b.leaf, job.Msgs, sched)
	case service.KindVerify:
		return b.f.runVerify(ctx, b.leaf, job.Msgs, job.Sigs, sched)
	case service.KindKeyGen:
		return b.f.runKeyGen(ctx, b.leaf, key.Params, job.Seeds)
	}
	return nil, fmt.Errorf("remote: unknown job kind %d", job.Kind)
}

// RemoteHealth implements service.RemoteHealthReporter for /v1/stats.
func (b *Backend) RemoteHealth() service.RemoteLeafStats {
	l := b.leaf
	st := service.RemoteLeafStats{
		WeightSigsPerSec: b.Weight(),
		Probes:           l.probes.Load(),
		ProbeFailures:    l.probeFailures.Load(),
		Ejections:        l.ejections.Load(),
		PrimarySends:     l.primarySends.Load(),
		Failovers:        l.failovers.Load(),
		Errors:           l.errorsTotal.Load(),
		Overloads:        l.overloads.Load(),
	}
	l.mu.Lock()
	st.URL, st.KeyID, st.State = l.url, l.keyID, l.state.String()
	st.EWMASigsPerSec, st.LatencyEWMAMs = l.ewmaSigs, l.ewmaLatMs
	l.mu.Unlock()
	return st
}

// Close releases this backend's fleet reference; the router calls it after
// the pool drains, and the last backend's close stops the probe loop.
func (b *Backend) Close() error {
	b.closeOnce.Do(b.f.release)
	return nil
}

// pickSibling chooses a failover target serving the same key domain:
// available, not yet attempted, least in flight (ties broken by weight).
func (f *Fleet) pickSibling(keyID string, attempted map[*leaf]bool) *leaf {
	var best *leaf
	var bestInflight int64
	var bestWeight float64
	for _, l := range f.leafList() {
		if attempted[l] || !l.available() {
			continue
		}
		l.mu.Lock()
		match := l.keyID == keyID
		w := l.ewmaSigs
		l.mu.Unlock()
		if !match {
			continue
		}
		inflight := l.inflight.Load()
		if best == nil || inflight < bestInflight ||
			(inflight == bestInflight && w > bestWeight) {
			best, bestInflight, bestWeight = l, inflight, w
		}
	}
	return best
}

// runFailover executes op against the primary, then against siblings of
// the same key domain on a hard failure or a leaf overload (another
// replica may have queue room) — the one attempt → classify → failover
// path every proxied batch kind takes. The winning attempt's duration is
// its BusyUs. An attempt cut short by the caller's ctx says nothing about
// the leaf and is not counted against its health.
func (f *Fleet) runFailover(ctx context.Context, primary *leaf,
	op func(ctx context.Context, l *leaf, keyID string) (*service.BatchOutput, error)) (*service.BatchOutput, error) {
	primary.primarySends.Add(1)
	l := primary
	maxAttempts := f.maxAttempts()
	attempted := make(map[*leaf]bool, maxAttempts)
	var overloadMax time.Duration
	sawOverload := false
	var lastErr error
	for len(attempted) < maxAttempts && l != nil {
		attempted[l] = true
		kid := l.domain()
		l.inflight.Add(1)
		actx, cancel := context.WithTimeout(ctx, f.opts.RequestTimeout)
		t0 := time.Now()
		out, err := op(actx, l, kid)
		cancel()
		dur := time.Since(t0)
		l.inflight.Add(-1)
		if err == nil {
			l.observeSuccess(f.opts, dur)
			out.BusyUs = float64(dur.Microseconds())
			return out, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var over *service.OverloadError
		switch {
		case errors.As(err, &over):
			l.observeOverload()
			sawOverload = true
			if over.RetryAfter > overloadMax {
				overloadMax = over.RetryAfter
			}
		case hardFailure(err):
			l.observeHardFailure(f.opts)
			lastErr = err
		default:
			l.observeSoftFailure()
			return nil, err // 4xx: retrying elsewhere cannot help
		}
		prev := l
		l = f.pickSibling(kid, attempted)
		if l != nil {
			prev.failovers.Add(1)
		}
	}
	// Every attempted leaf failed. Overload wins the error ranking: it is
	// retryable by the client, and it must carry the *leaves'* drain
	// estimate (the max across attempted leaves), not one recomputed from
	// the front end's own queue.
	if sawOverload {
		return nil, &service.OverloadError{Scope: "leaf", RetryAfter: overloadMax}
	}
	return nil, lastErr
}

func (f *Fleet) runSign(ctx context.Context, primary *leaf, msgs [][]byte, sched schedMeta) (*service.BatchOutput, error) {
	return f.runFailover(ctx, primary, func(actx context.Context, l *leaf, kid string) (*service.BatchOutput, error) {
		sigs, err := f.tr.signBatch(actx, l.url, kid, msgs, sched)
		if err != nil {
			return nil, err
		}
		return &service.BatchOutput{Sigs: sigs}, nil
	})
}

func (f *Fleet) runVerify(ctx context.Context, primary *leaf, msgs, sigs [][]byte, sched schedMeta) (*service.BatchOutput, error) {
	return f.runFailover(ctx, primary, func(actx context.Context, l *leaf, kid string) (*service.BatchOutput, error) {
		ok, err := f.tr.verifyBatch(actx, l.url, kid, msgs, sigs, sched)
		if err != nil {
			return nil, err
		}
		return &service.BatchOutput{OK: ok}, nil
	})
}

func (f *Fleet) runKeyGen(ctx context.Context, primary *leaf, p *service.Params, seeds []service.SeedTriple) (*service.BatchOutput, error) {
	return f.runFailover(ctx, primary, func(actx context.Context, l *leaf, _ string) (*service.BatchOutput, error) {
		raw, err := f.tr.keygen(actx, l.url, seeds)
		if err != nil {
			return nil, err
		}
		keys := make([]*service.PrivateKey, len(raw))
		for i, kb := range raw {
			sk, err := spx.ParsePrivateKey(p, kb)
			if err != nil {
				return nil, &StatusError{URL: l.url, Status: 200,
					Msg: fmt.Sprintf("keygen key %d does not parse: %v", i, err)}
			}
			keys[i] = sk
		}
		return &service.BatchOutput{Keys: keys}, nil
	})
}
