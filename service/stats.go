package service

import (
	"fmt"
	"time"
)

// FleetEvent is one membership transition of a dynamic fleet: a leaf
// joined, left, lost its heartbeat lease, was ejected by the health
// checker or recovered through a half-open trial. The membership registry
// folds its event ring into Stats.FleetEvents via AddStatsHook.
type FleetEvent struct {
	Time time.Time `json:"time"`
	// Type is "joined", "left", "lease-expired", "ejected" or "recovered".
	Type string `json:"type"`
	URL  string `json:"url"`
	Note string `json:"note,omitempty"`
}

// BackendStats reports one pool's counters. Busy times are the backend's
// own clock: modeled device time for simulated GPUs, measured wall time for
// CPU backends.
type BackendStats struct {
	Worker  int    `json:"worker"`
	Shard   int    `json:"shard"`
	Device  string `json:"device"` // backend name (historic field name)
	KeyID   string `json:"key_id"`
	Batches int64  `json:"batches"`

	Messages   int64 `json:"messages"`
	SignMsgs   int64 `json:"sign_messages"`
	VerifyMsgs int64 `json:"verify_messages"`
	KeyGenMsgs int64 `json:"keygen_messages"`

	// WeightSigsPerSec is the dispatch weight: the backend's current sigs/s
	// estimate the weighted least-outstanding-work router divides by.
	WeightSigsPerSec float64 `json:"weight_sigs_per_sec"`

	// ModeledBusySec is the backend's accumulated execution time across all
	// kinds (its stream-accounting clock for simulated devices).
	ModeledBusySec   float64 `json:"modeled_busy_sec"`
	ModeledLaunchSec float64 `json:"modeled_launch_overhead_sec"`
	// ModeledSignPerSec is the backend's signing throughput: signed
	// messages over its signing busy time.
	ModeledSignPerSec float64 `json:"modeled_sign_per_sec"`

	// QueueDepth is messages dispatched to this pool but not completed.
	QueueDepth int64 `json:"queue_depth"`

	// Memo reports the backend's hypertree memoization cache, when it has
	// one (see MemoReporter).
	Memo *MemoStats `json:"memo,omitempty"`
}

// MemoStats reports one hypertree memoization cache: layer-level hit/miss
// counters, residency against the byte budget, and how much of the pinned
// plan Warm prebuilt. A hit means the subtree's node table was cached (auth
// path and root were memcpys); a WOTS hit means the layer's one-time
// signature slot matched too, making the whole layer hash-free.
type MemoStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	WOTSHits  int64 `json:"wots_hits"`
	WOTSFills int64 `json:"wots_fills"`

	ResidentBytes int64 `json:"resident_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
	PinnedLayers  int   `json:"pinned_layers"`
	Entries       int   `json:"entries"`
	WarmedEntries int64 `json:"warmed_entries"`
}

// add accumulates other into m for shard-level aggregation (gauges sum;
// PinnedLayers keeps the maximum since caches may differ per backend).
func (m *MemoStats) add(other *MemoStats) {
	m.Hits += other.Hits
	m.Misses += other.Misses
	m.Evictions += other.Evictions
	m.WOTSHits += other.WOTSHits
	m.WOTSFills += other.WOTSFills
	m.ResidentBytes += other.ResidentBytes
	m.BudgetBytes += other.BudgetBytes
	m.Entries += other.Entries
	m.WarmedEntries += other.WarmedEntries
	if other.PinnedLayers > m.PinnedLayers {
		m.PinnedLayers = other.PinnedLayers
	}
}

// MemoReporter is an optional Backend refinement: backends holding a
// hypertree memoization cache expose its counters through it. The second
// return is false when memoization is configured off, which keeps the
// stats JSON free of all-zero memo blocks.
type MemoReporter interface {
	MemoStats() (MemoStats, bool)
}

// ShardStats reports one key domain's admission state.
type ShardStats struct {
	Shard    int      `json:"shard"`
	KeyID    string   `json:"key_id"`
	Backends []string `json:"backends"`

	// QueueDepth is the shard's admitted-but-unresolved messages
	// (coalescing, queued or executing); QueueLimit is its admission cap
	// (0 = unbounded).
	QueueDepth int64 `json:"queue_depth"`
	QueueLimit int64 `json:"queue_limit"`

	// Rejected counts submissions refused with ErrOverloaded; Shed counts
	// coalescing requests evicted by the drop-oldest-deadline policy.
	Rejected int64 `json:"rejected"`
	Shed     int64 `json:"shed"`

	// WeightSigsPerSec aggregates the shard's backend weights.
	WeightSigsPerSec float64 `json:"weight_sigs_per_sec"`

	// Memo aggregates the shard's backend memoization caches (nil when no
	// backend in the shard memoizes).
	Memo *MemoStats `json:"memo,omitempty"`
}

// RemoteLeafStats reports one remote leaf's health as seen by its
// front-end backend: the health checker's state machine, the probe-fed
// weight, and the send and failover counters. Backends surface it by
// implementing RemoteHealthReporter; /v1/stats lists one entry per
// remote-backed pool.
type RemoteLeafStats struct {
	URL   string `json:"url"`
	KeyID string `json:"key_id,omitempty"` // key domain the leaf was warmed for
	// State is "healthy", "ejected" or "half-open".
	State string `json:"state"`
	// WeightSigsPerSec is the dispatch weight the router sees (zero while
	// ejected); EWMASigsPerSec is the underlying estimate from observed
	// throughput between /v1/stats probes.
	WeightSigsPerSec float64 `json:"weight_sigs_per_sec"`
	EWMASigsPerSec   float64 `json:"ewma_sigs_per_sec"`
	// LatencyEWMAMs is the smoothed per-batch request latency feeding the
	// outlier z-score.
	LatencyEWMAMs float64 `json:"latency_ewma_ms"`

	Probes        int64 `json:"probes"`
	ProbeFailures int64 `json:"probe_failures"`
	Ejections     int64 `json:"ejections"`

	// PrimarySends counts batches first issued to this leaf. Failovers
	// counts batches this leaf failed with a retryable error (transport,
	// 5xx, 429) that were retried on a sibling.
	PrimarySends int64 `json:"primary_sends"`
	Failovers    int64 `json:"failovers"`
	Errors       int64 `json:"errors"`
	Overloads    int64 `json:"overloads"` // 429s the leaf returned

	// HedgesSent is always 0: the fleet no longer hedges. The field is
	// kept for existing /v1/stats readers.
	HedgesSent int64 `json:"hedges_sent"`
}

// RemoteHealthReporter is an optional Backend refinement: remote-leaf
// backends expose their health telemetry through it and Stats surfaces
// the snapshots under "remote_leaves".
type RemoteHealthReporter interface {
	RemoteHealth() RemoteLeafStats
}

// HistBucket is one batch-size histogram bucket; Le is the inclusive upper
// bound ("+Inf" for the overflow bucket).
type HistBucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// Stats is the service-wide snapshot served at /v1/stats.
type Stats struct {
	Params    string `json:"params"`
	MaxBatch  int    `json:"max_batch"`
	DeadlineM string `json:"flush_deadline"`

	// ShedPolicy names the overload behavior; the counters below record how
	// often it fired.
	ShedPolicy string `json:"shed_policy"`
	// GlobalQueueDepth / GlobalQueueLimit mirror the service-wide admission
	// gate (limit 0 = unbounded).
	GlobalQueueDepth int64 `json:"global_queue_depth"`
	GlobalQueueLimit int64 `json:"global_queue_limit"`
	// RejectedTotal counts every ErrOverloaded rejection (global and
	// per-shard); ShedTotal counts drop-oldest-deadline evictions.
	RejectedTotal int64 `json:"rejected_total"`
	ShedTotal     int64 `json:"shed_total"`

	// PendingRequests are submitted requests still waiting in a coalescer.
	PendingRequests int `json:"pending_requests"`
	// QueuedMessages are flushed messages dispatched to pools but not yet
	// completed.
	QueuedMessages int64 `json:"queued_messages"`

	TotalMessages int64 `json:"total_messages"`
	TotalBatches  int64 `json:"total_batches"`

	// ModeledGPUSeconds sums every backend's busy time.
	ModeledGPUSeconds float64 `json:"modeled_gpu_seconds"`
	// ModeledMakespanSec is the busiest backend's clock — the fleet-level
	// modeled wall time, since backends run concurrently.
	ModeledMakespanSec float64 `json:"modeled_makespan_sec"`
	// ModeledSignPerSec is fleet signing throughput: total signed messages
	// over the makespan.
	ModeledSignPerSec float64 `json:"modeled_sign_per_sec"`

	BatchSizeHist []HistBucket   `json:"batch_size_hist"`
	Devices       []BackendStats `json:"devices"` // historic field name
	Shards        []ShardStats   `json:"shards"`

	// TenantRate / TenantBurst echo the per-tenant fair-queuing
	// configuration (rate 0 = rate limiting off); Tenants lists every API
	// key's accounting, sorted by name. At least the default tenant appears
	// once any request has been submitted.
	TenantRate  float64       `json:"tenant_rate,omitempty"`
	TenantBurst int           `json:"tenant_burst,omitempty"`
	Tenants     []TenantStats `json:"tenants,omitempty"`

	// RemoteLeaves lists per-leaf health for remote-backed pools (empty on
	// an all-local fleet).
	RemoteLeaves []RemoteLeafStats `json:"remote_leaves,omitempty"`

	// AuthRejected counts requests refused 401 by fleet authentication
	// (missing, malformed, forged or replayed X-Herosign-Fleet-Auth).
	AuthRejected int64 `json:"auth_rejected,omitempty"`
	// FleetEvents is the recent membership transition log of a dynamic
	// fleet (newest last), surfaced by the membership registry.
	FleetEvents []FleetEvent `json:"fleet_events,omitempty"`
}

// Stats snapshots the coalescers, the admission gates and the pools.
func (s *Service) Stats() Stats {
	st := Stats{
		Params:           s.cfg.Params.Name,
		MaxBatch:         s.cfg.MaxBatch,
		DeadlineM:        s.batchers[0].sign.deadline.String(),
		ShedPolicy:       s.cfg.ShedPolicy.String(),
		GlobalQueueDepth: s.router.global.depth(),
		GlobalQueueLimit: s.router.global.cap(),
		RejectedTotal:    s.router.rejectedGlobal.Load(),
		TenantRate:       s.tenants.rate,
		TenantBurst:      int(s.tenants.burst),
		Tenants:          s.tenants.snapshot(),
	}
	for _, sb := range s.batchers {
		st.PendingRequests += sb.sign.depth() + sb.verify.depth() + sb.keygen.depth()
	}
	hist := make([]int64, len(histBuckets)+1)
	var signMsgs int64
	for _, sh := range s.router.shards {
		ss := ShardStats{
			Shard: sh.id, KeyID: sh.keyID,
			QueueDepth: sh.gate.depth(), QueueLimit: sh.gate.cap(),
			Rejected: sh.rejected.Load(), Shed: sh.shed.Load(),
			WeightSigsPerSec: sh.weight(),
		}
		st.RejectedTotal += ss.Rejected
		st.ShedTotal += ss.Shed
		for _, p := range sh.poolList() {
			ss.Backends = append(ss.Backends, p.backend.Name())
			ws := p.snapshot()
			busyUs := ws.SignBusyUs + ws.VerifyBusyUs + ws.KeyGenBusyUs
			ds := BackendStats{
				Worker: p.id, Shard: sh.id, Device: p.backend.Name(), KeyID: sh.keyID,
				Batches: ws.Batches, Messages: ws.Messages,
				SignMsgs: ws.SignMsgs, VerifyMsgs: ws.VerifyMsgs, KeyGenMsgs: ws.KeyGenMsgs,
				WeightSigsPerSec: p.backend.Weight(),
				ModeledBusySec:   busyUs / 1e6,
				ModeledLaunchSec: ws.LaunchOverheadUs / 1e6,
				QueueDepth:       p.outstanding.Load(),
			}
			if ws.SignBusyUs > 0 {
				ds.ModeledSignPerSec = float64(ws.SignMsgs) / (ws.SignBusyUs / 1e6)
			}
			st.Devices = append(st.Devices, ds)
			st.TotalMessages += ws.Messages
			st.TotalBatches += ws.Batches
			st.ModeledGPUSeconds += ds.ModeledBusySec
			if ds.ModeledBusySec > st.ModeledMakespanSec {
				st.ModeledMakespanSec = ds.ModeledBusySec
			}
			st.QueuedMessages += p.outstanding.Load()
			signMsgs += ws.SignMsgs
			for i, c := range ws.Hist {
				hist[i] += c
			}
			if hr, ok := p.backend.(RemoteHealthReporter); ok {
				st.RemoteLeaves = append(st.RemoteLeaves, hr.RemoteHealth())
			}
			if mr, ok := p.backend.(MemoReporter); ok {
				if ms, on := mr.MemoStats(); on {
					msCopy := ms
					st.Devices[len(st.Devices)-1].Memo = &msCopy
					if ss.Memo == nil {
						ss.Memo = &MemoStats{}
					}
					ss.Memo.add(&ms)
				}
			}
		}
		st.Shards = append(st.Shards, ss)
	}
	if st.ModeledMakespanSec > 0 {
		st.ModeledSignPerSec = float64(signMsgs) / st.ModeledMakespanSec
	}
	for i, c := range hist {
		le := "+Inf"
		if i < len(histBuckets) {
			le = fmt.Sprintf("%d", histBuckets[i])
		}
		st.BatchSizeHist = append(st.BatchSizeHist, HistBucket{Le: le, Count: c})
	}
	if s.auth != nil {
		st.AuthRejected += s.auth.Rejected()
	}
	s.hookMu.Lock()
	hooks := make([]func(*Stats), len(s.statsHooks))
	copy(hooks, s.statsHooks)
	s.hookMu.Unlock()
	for _, fn := range hooks {
		fn(&st)
	}
	return st
}
