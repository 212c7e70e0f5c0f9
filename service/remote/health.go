package remote

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// leafState is the health checker's three-state machine.
type leafState int32

const (
	stateHealthy leafState = iota
	stateEjected
	stateHalfOpen
)

func (s leafState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateEjected:
		return "ejected"
	case stateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// leaf is one remote server's health record. The probe loop, the request
// path and stats snapshots all touch it; everything mutable sits behind mu
// except the monotonic counters.
type leaf struct {
	url  string
	host string

	// onEvent, when set, receives health transitions ("ejected",
	// "recovered") for the fleet event log. Called with l.mu held; it must
	// not call back into the leaf.
	onEvent func(typ, url, note string)

	mu    sync.Mutex
	state leafState
	keyID string // front-end shard key domain, set at Warm

	capacity  int // admission-cap hint learned from the leaf's stats
	prefBatch int // leaf's flush threshold, for BatchHinter alignment

	ewmaSigs  float64 // probe-fed observed sigs/s (the dispatch weight)
	ewmaLatMs float64 // smoothed per-batch request latency

	quarantine      time.Duration // current backoff (doubles per re-ejection)
	quarantineUntil time.Time

	consecProbeFail int
	consecReqFail   int

	// windowed request outcomes, reset at every probe tick; feeds the
	// error-rate ejection rule.
	winSends int64
	winFails int64

	// probe baseline for observed-throughput deltas.
	lastSignMsgs int64
	lastProbe    time.Time
	probeSeeded  bool

	inflight atomic.Int64

	probes        atomic.Int64
	probeFailures atomic.Int64
	ejections     atomic.Int64
	primarySends  atomic.Int64
	failovers     atomic.Int64
	errorsTotal   atomic.Int64
	overloads     atomic.Int64
}

func newLeaf(url, host string) *leaf {
	return &leaf{url: url, host: host, state: stateHealthy}
}

// available reports whether the router may dispatch to this leaf: healthy,
// or half-open with no trial in flight (one trial at a time probes the
// leaf back in).
func (l *leaf) available() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch l.state {
	case stateHealthy:
		return true
	case stateHalfOpen:
		return l.inflight.Load() == 0
	}
	return false
}

// weight is the dispatch weight: the probe-fed EWMA while serving, zero
// while ejected so shard aggregates reflect live capacity only. A serving
// leaf's weight is floored at min (Options.MinWeight): a leaf that was
// idle between probes observes zero sigs/s, and without the floor it
// would never be routed to again — idle-but-healthy must stay routable.
func (l *leaf) weight(min float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state == stateEjected {
		return 0
	}
	if l.ewmaSigs < min {
		return min
	}
	return l.ewmaSigs
}

// domain is the front-end key domain the leaf was warmed for ("" before
// Warm).
func (l *leaf) domain() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.keyID
}

// eject quarantines the leaf with exponential backoff. Caller holds l.mu.
func (l *leaf) ejectLocked(o Options) {
	if l.state == stateEjected {
		return
	}
	l.state = stateEjected
	l.ejections.Add(1)
	if l.quarantine <= 0 {
		l.quarantine = o.BaseQuarantine
	} else {
		l.quarantine *= 2
		if l.quarantine > o.MaxQuarantine {
			l.quarantine = o.MaxQuarantine
		}
	}
	l.quarantineUntil = time.Now().Add(l.quarantine)
	l.consecReqFail = 0
	l.consecProbeFail = 0
	if l.onEvent != nil {
		l.onEvent("ejected", l.url, "quarantine "+l.quarantine.String())
	}
}

// observeSuccess folds one completed batch into the health record. A
// success during a half-open trial restores the leaf to healthy and resets
// its quarantine backoff.
func (l *leaf) observeSuccess(o Options, dur time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.winSends++
	l.consecReqFail = 0
	ms := float64(dur.Microseconds()) / 1e3
	if l.ewmaLatMs <= 0 {
		l.ewmaLatMs = ms
	} else {
		l.ewmaLatMs = (1-o.EWMAAlpha)*l.ewmaLatMs + o.EWMAAlpha*ms
	}
	if l.state == stateHalfOpen {
		l.state = stateHealthy
		l.quarantine = 0
		if l.onEvent != nil {
			l.onEvent("recovered", l.url, "half-open trial succeeded")
		}
	}
}

// observeHardFailure records a transport/5xx failure; enough consecutive
// ones eject without waiting for a probe, and any failure during a
// half-open trial re-ejects immediately.
func (l *leaf) observeHardFailure(o Options) {
	l.errorsTotal.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.winSends++
	l.winFails++
	l.consecReqFail++
	if l.state == stateHalfOpen || l.consecReqFail >= o.EjectRequestFailures {
		l.ejectLocked(o)
	}
}

// observeSoftFailure records a non-ejecting error (4xx: a proxy bug, not a
// sick leaf).
func (l *leaf) observeSoftFailure() {
	l.errorsTotal.Add(1)
	l.mu.Lock()
	l.winSends++
	l.mu.Unlock()
}

// observeOverload records a leaf 429 — a healthy-but-full signal that must
// not feed ejection.
func (l *leaf) observeOverload() {
	l.overloads.Add(1)
	l.mu.Lock()
	l.winSends++
	l.mu.Unlock()
}

// probeLoop drives the fleet's health checker: every ProbeInterval it
// probes all leaves concurrently, folds observed throughput into the
// weights, advances quarantines, and applies the error-rate and latency
// z-score ejection rules.
func (f *Fleet) probeLoop() {
	tick := time.NewTicker(f.opts.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
			var wg sync.WaitGroup
			for _, l := range f.leafList() {
				wg.Add(1)
				go func(l *leaf) {
					defer wg.Done()
					f.probe(l)
				}(l)
			}
			wg.Wait()
			f.evaluateOutliers()
		}
	}
}

// probe fetches one leaf's /v1/stats and updates its record.
func (f *Fleet) probe(l *leaf) {
	ctx, cancel := context.WithTimeout(context.Background(), f.opts.ProbeTimeout)
	defer cancel()
	now := time.Now()
	st, err := f.tr.stats(ctx, l.url)
	l.probes.Add(1)
	if err != nil {
		l.probeFailures.Add(1)
		l.mu.Lock()
		l.consecProbeFail++
		l.probeSeeded = false // the throughput delta restarts after a gap
		if l.consecProbeFail >= f.opts.EjectProbeFailures {
			l.ejectLocked(f.opts)
		}
		l.mu.Unlock()
		return
	}

	var signMsgs int64
	for _, d := range st.Devices {
		signMsgs += d.SignMsgs
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.consecProbeFail = 0
	if l.probeSeeded {
		elapsed := now.Sub(l.lastProbe).Seconds()
		if delta := signMsgs - l.lastSignMsgs; delta > 0 && elapsed > 0 {
			obs := float64(delta) / elapsed
			if l.ewmaSigs <= 0 {
				l.ewmaSigs = obs
			} else {
				l.ewmaSigs = (1-f.opts.EWMAAlpha)*l.ewmaSigs + f.opts.EWMAAlpha*obs
			}
		}
	}
	l.lastSignMsgs, l.lastProbe, l.probeSeeded = signMsgs, now, true

	// Error-rate rule over the window since the previous tick.
	if l.state == stateHealthy && l.winSends >= 8 &&
		float64(l.winFails)/float64(l.winSends) > f.opts.ErrorRateLimit {
		l.ejectLocked(f.opts)
	}
	l.winSends, l.winFails = 0, 0

	// A reachable leaf whose quarantine has lapsed earns half-open trials.
	if l.state == stateEjected && now.After(l.quarantineUntil) {
		l.state = stateHalfOpen
	}
}

// evaluateOutliers applies the latency z-score rule across the healthy
// leaves: a leaf whose smoothed batch latency sits LatencyZLimit standard
// deviations above the fleet mean (and above an absolute floor, so quiet
// microsecond-scale jitter never trips it) is ejected.
func (f *Fleet) evaluateOutliers() {
	leaves := f.leafList()
	if f.opts.LatencyZLimit < 0 || len(leaves) < 3 {
		return
	}
	type sample struct {
		l   *leaf
		lat float64
	}
	var samples []sample
	for _, l := range leaves {
		l.mu.Lock()
		if l.state == stateHealthy && l.ewmaLatMs > 0 {
			samples = append(samples, sample{l, l.ewmaLatMs})
		}
		l.mu.Unlock()
	}
	if len(samples) < 3 {
		return
	}
	var sum, sumSq float64
	for _, s := range samples {
		sum += s.lat
		sumSq += s.lat * s.lat
	}
	n := float64(len(samples))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance <= 0 {
		return
	}
	std := math.Sqrt(variance)
	const latencyFloorMs = 5
	for _, s := range samples {
		if s.lat < latencyFloorMs {
			continue
		}
		if (s.lat-mean)/std > f.opts.LatencyZLimit {
			s.l.mu.Lock()
			s.l.ejectLocked(f.opts)
			s.l.mu.Unlock()
		}
	}
}
