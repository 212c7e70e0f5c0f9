package main

import (
	"fmt"
	"math"
	"time"
)

// sumTolerance bounds |wait + transport + queue + run + reply - latency|
// for a linked request. The parts are differences of the same monotonic
// clock readings, so anything above rounding means the arithmetic is wrong.
const sumTolerance = time.Microsecond

// layerMetrics derives the traced run's per-layer metrics. Metrics of a
// layer the workload does not pass through are reported as 0.
func layerMetrics(res *result, w *workload, base, traced *runResult, tr *tracer) {
	var wait, transport, queue, run, reply []float64
	unlinked, misordered := 0, 0
	maxSumErr := 0.0
	runs := tr.runsByRequest()
	for _, rec := range traced.open() {
		if !rec.ok {
			continue
		}
		h, okH := tr.handler(rec.id)
		p, linked := decompose(rec.due, rec.sent, rec.done, h, okH, runs[rec.id])
		if !linked {
			unlinked++
			continue
		}
		if !p.ordered {
			misordered++
		}
		maxSumErr = math.Max(maxSumErr, math.Abs(ms(p.sum()-rec.latency())))
		wait = append(wait, ms(p.wait))
		transport = append(transport, ms(p.transport))
		queue = append(queue, ms(p.queue))
		run = append(run, ms(p.run))
		reply = append(reply, ms(p.reply))
	}
	setPair := func(name string, xs []float64) {
		res.set(name+".p50", zeroNaN(percentile(xs, 0.50)), "ms")
		res.set(name+".p99", zeroNaN(percentile(xs, 0.99)), "ms")
	}
	setPair("client.wait_ms", wait)
	setPair("http.transport_ms", transport)
	setPair("service.queue_ms", queue)
	setPair("service.reply_ms", reply)
	setPair("backend.run_ms", run)
	res.set("trace.linked", float64(len(wait)), "count")
	res.set("trace.unlinked", float64(unlinked), "count")
	res.set("trace.misordered", float64(misordered), "count")
	res.set("trace.sum_error_ms", maxSumErr, "ms")
	if maxSumErr > ms(sumTolerance) {
		res.Notes = append(res.Notes, fmt.Sprintf("TRACE: a request's parts miss its latency by %.4f ms (tolerance %v)", maxSumErr, sumTolerance))
	}

	var reqB, respB, ops int
	for _, rec := range traced.all() {
		if rec.ok {
			reqB += rec.reqB
			respB += rec.respB
			ops += rec.ops
		}
	}
	res.set("http.req_kb", float64(reqB)/1024/math.Max(1, float64(ops)), "KiB/op")
	res.set("http.resp_kb", float64(respB)/1024/math.Max(1, float64(ops)), "KiB/op")

	batches, leafHandlers, collisions := tr.snapshot()
	res.set("trace.collisions", float64(collisions), "count")
	var sizes []float64
	var busy time.Duration
	phase := span{traced.phaseStart, traced.phaseEnd}
	leafStart := map[int64]time.Time{}
	for _, b := range batches {
		switch b.role {
		case roleSvc:
			sizes = append(sizes, float64(b.n))
			busy += overlap(b.span, phase)
		case roleLeaf:
			for _, f := range b.fronts {
				if t, ok := leafStart[f]; !ok || b.start.Before(t) {
					leafStart[f] = b.start
				}
			}
		}
	}
	res.set("service.batch_size", zeroNaN(mean(sizes)), "count")
	res.set("service.batch_fill", zeroNaN(mean(sizes))/math.Max(1, float64(traced.preferredBatch)), "ratio")
	res.set("backend.busy_ratio", float64(busy)/math.Max(1, float64(phase.dur())), "ratio")

	rejected := traced.stats.RejectedTotal
	if traced.leafStats != nil {
		rejected += traced.leafStats.RejectedTotal
	}
	res.set("service.rejected", float64(rejected), "count")

	var hop, leafQueue []float64
	var retries int64
	if w.backend == backendRemote {
		for _, b := range batches {
			h, ok := leafHandlers[b.id]
			if b.role != roleSvc || !ok {
				continue
			}
			hop = append(hop, ms(b.dur()-h.dur()))
			if t, ok := leafStart[b.id]; ok {
				leafQueue = append(leafQueue, ms(t.Sub(h.start)))
			}
		}
		for _, l := range traced.stats.RemoteLeaves {
			retries += l.Failovers + l.HedgesSent
		}
	}
	setPair("remote.hop_ms", hop)
	setPair("remote.leaf_queue_ms", leafQueue)
	res.set("remote.retries", float64(retries), "count")

	hitRatio, residentMB := 0.0, 0.0
	if traced.leafStats != nil && len(traced.leafStats.Shards) > 0 && traced.leafStats.Shards[0].Memo != nil {
		m := traced.leafStats.Shards[0].Memo
		hitRatio = float64(m.Hits) / math.Max(1, float64(m.Hits+m.Misses))
		residentMB = float64(m.ResidentBytes) / mib
	}
	res.set("treecache.hit_ratio", hitRatio, "ratio")
	res.set("treecache.resident_mb", residentMB, "MiB")

	// The open-loop tail is reported here rather than end to end: on the
	// shared reference host its run-to-run spread exceeds any usable bound.
	res.set("p99_ms", base.p99(), "ms")
	res.set("host.steal_ratio", zeroNaN(mean(traced.perRound(func(rd round) float64 { return rd.steal }))), "ratio")
	res.set("tracing.overhead.p50", traced.p50()/base.p50(), "ratio")
	res.set("tracing.overhead.throughput", traced.throughput()/base.throughput(), "ratio")
	res.set("error_ratio", float64(res.Failed)/math.Max(1, float64(res.Attempted)), "ratio")

	for _, ph := range []struct {
		name string
		recs []record
	}{{"open", traced.open()}, {"closed", traced.closed()}} {
		sent, ok, failed := phaseCounts(ph.recs)
		res.set("load."+ph.name+".sent", float64(sent), "count")
		res.set("load."+ph.name+".ok", float64(ok), "count")
		res.set("load."+ph.name+".failed", float64(failed), "count")
	}
}

// overlap is the part of s inside window.
func overlap(s, window span) time.Duration {
	start, end := s.start, s.end
	if window.start.After(start) {
		start = window.start
	}
	if window.end.Before(end) {
		end = window.end
	}
	if end.Before(start) {
		return 0
	}
	return end.Sub(start)
}

// zeroNaN reports an empty sample set as 0.
func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// closedBatchMode is the most common svc batch size of the traced closed
// loop: the batch size the ladder's direct calls use.
func closedBatchMode(tr *tracer, traced *runResult) int {
	batches, _, _ := tr.snapshot()
	counts := map[int]int{}
	best, bestN := 1, 0
	for _, b := range batches {
		if b.role != roleSvc || !traced.inClosed(b.start) {
			continue
		}
		counts[b.n]++
		if c := counts[b.n]; c > bestN || (c == bestN && b.n > best) {
			best, bestN = b.n, c
		}
	}
	return best
}
