package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"herosign/service"
)

// rounds is how many open-loop/closed-loop rounds a measured span is cut
// into. The end-to-end numbers are medians over the rounds, so a stall of
// the host that spans fewer than half of them does not move them.
const rounds = 5

// round is one open-loop segment followed by one closed-loop segment.
type round struct {
	open        []record
	closed      []record
	closedStart time.Time
	closedWall  time.Duration // first closed send to last completion
	// steal is the share of the host's CPU time the hypervisor gave other
	// guests during the round (NaN where unknown): a measure of how noisy
	// the host was.
	steal float64
}

// runResult is one deployment's measured rounds.
type runResult struct {
	w              *workload
	warm           []record
	rounds         []round
	openSpan       time.Duration // scheduled length of all open-loop segments
	heapMB         []float64     // retained heap after each round's open loop
	setup          time.Duration
	stats          service.Stats  // client-facing service, after the rounds
	leafStats      *service.Stats // sign-fleet's leaf
	sigs           *sigStore
	checked        checkResult
	phaseStart     time.Time // first open-loop send
	phaseEnd       time.Time // last closed-loop completion
	preferredBatch int
}

const mib = 1 << 20

// warmSpan is how long the closed loop runs, uncounted, before the rounds,
// so that the first round does not pay for the deployment's first batches.
const warmSpan = time.Second

// measure deploys w, warms it with the closed loop over warmSpan,
// runs the rounds (open loop over openShare of each round, the retained
// heap, closed loop over the rest), snapshots the service stats and closes
// the deployment.
func measure(w *workload, seed uint64, key *service.PrivateKey, pool *verifyPool, tr *tracer, span time.Duration) (*runResult, error) {
	roundSpan := span / rounds
	openSpan := time.Duration(float64(roundSpan) * openShare)
	closedSpan := roundSpan - openSpan
	schedules := make([][]time.Duration, rounds)
	openReqs := 0
	for k := range schedules {
		schedules[k] = poissonSchedule(seed, uint64(k), w.openRate, openSpan)
		openReqs += len(schedules[k])
	}
	// Records are allocated before the heap baseline, sized well past what
	// the reference host completes, so the benchmark's own bookkeeping does
	// not count in heap_mb.
	closedCap := int(closedSpan.Seconds()*400) + 64
	warmCap := int(warmSpan.Seconds()*400) + 64
	r := &runResult{w: w, openSpan: openSpan * rounds, rounds: make([]round, rounds),
		warm: make([]record, 0, warmCap), heapMB: make([]float64, 0, rounds),
		sigs: newSigStore(openReqs*w.openBatch + (warmCap+rounds*closedCap)*w.closedBatch)}
	for k := range r.rounds {
		r.rounds[k].open = make([]record, len(schedules[k]))
		r.rounds[k].closed = make([]record, 0, closedCap)
	}

	var ms0 runtime.MemStats
	retainedHeap(&ms0)

	d, err := deploy(w, key, tr)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	r.setup = d.setup
	conns := runtime.GOMAXPROCS(0)
	c := newClient(w, seed, d.url, pool, tr, r.sigs, conns)

	var warmNext, closedNext atomic.Uint64
	r.warm, _ = c.closedLoop(streamWarm, &warmNext, w.closedBatch, warmSpan, r.warm)
	openNext := uint64(0)
	heap := func() {
		var m runtime.MemStats
		retainedHeap(&m)
		r.heapMB = append(r.heapMB, (float64(m.HeapAlloc)-float64(ms0.HeapAlloc)-float64(r.sigs.heldBytes()))/mib)
	}
	for k := range r.rounds {
		rd := &r.rounds[k]
		t0, s0, ok0 := cpuTicks()
		c.openLoop(streamOpen, openNext, schedules[k], rd.open)
		openNext += uint64(len(schedules[k]))
		heap()
		rd.closedStart = time.Now()
		rd.closed, rd.closedWall = c.closedLoop(streamClosed, &closedNext, w.closedBatch, closedSpan, rd.closed)
		rd.steal = math.NaN()
		if t1, s1, ok1 := cpuTicks(); ok0 && ok1 && t1 > t0 {
			rd.steal = float64(s1-s0) / float64(t1-t0)
		}
	}
	if open := r.open(); len(open) > 0 {
		r.phaseStart = open[0].due
	}
	for _, rec := range r.closed() {
		if rec.done.After(r.phaseEnd) {
			r.phaseEnd = rec.done
		}
	}

	r.stats = d.svc.Stats()
	r.preferredBatch = r.stats.MaxBatch
	if d.leaf != nil {
		st := d.leaf.Stats()
		r.leafStats = &st
	}
	c.close()
	if err := d.close(); err != nil {
		return nil, fmt.Errorf("%s close: %w", w.name, err)
	}
	return r, nil
}

// retainedHeap reads the heap after two forced collections: the second
// empties the sync.Pool victim caches the first one filled.
func retainedHeap(m *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(m)
}

// open returns the open-loop records of every round.
func (r *runResult) open() []record {
	var out []record
	for _, rd := range r.rounds {
		out = append(out, rd.open...)
	}
	return out
}

// closed returns the closed-loop records of every round.
func (r *runResult) closed() []record {
	var out []record
	for _, rd := range r.rounds {
		out = append(out, rd.closed...)
	}
	return out
}

func (r *runResult) all() []record {
	return append(append(append([]record(nil), r.warm...), r.open()...), r.closed()...)
}

// latencies are open-loop latencies in ms, +Inf for failed requests.
func latencies(recs []record) []float64 {
	xs := make([]float64, len(recs))
	for i, rec := range recs {
		xs[i] = math.Inf(1)
		if rec.ok {
			xs[i] = ms(rec.latency())
		}
	}
	return xs
}

// perRound applies f to every round.
func (r *runResult) perRound(f func(round) float64) []float64 {
	xs := make([]float64, len(r.rounds))
	for i, rd := range r.rounds {
		xs[i] = f(rd)
	}
	return xs
}

// p50 is the lowest of the rounds' median latencies. Interference from
// outside the program only ever adds latency, and a round's median rests on
// dozens of samples, so the quietest round estimates the program's median
// best; a regression in the program raises every round.
func (r *runResult) p50() float64 { return slices.Min(r.roundP50s()) }

// p99 is the median over rounds of each round's 0.99 latency quantile. A
// round's tail rests on a few samples, so its estimate is noisy both ways
// and the median, not the lowest, is the steady summary.
func (r *runResult) p99() float64 { return median(r.roundP99s()) }

// throughput is the median over rounds of closed-loop throughput.
func (r *runResult) throughput() float64 { return median(r.roundThroughputs()) }

func (r *runResult) roundP50s() []float64 {
	return r.perRound(func(rd round) float64 { return percentile(latencies(rd.open), 0.50) })
}

// roundP99s estimates each round's 0.99 quantile with Harrell-Davis.
func (r *runResult) roundP99s() []float64 {
	return r.perRound(func(rd round) float64 { return hdQuantile(latencies(rd.open), 0.99) })
}

// roundThroughputs are each round's closed-loop operations completed per
// second.
func (r *runResult) roundThroughputs() []float64 {
	return r.perRound(func(rd round) float64 {
		ops := 0
		for _, rec := range rd.closed {
			if rec.ok {
				ops += rec.ops
			}
		}
		if rd.closedWall <= 0 {
			return 0
		}
		return float64(ops) / rd.closedWall.Seconds()
	})
}

// inClosed reports whether t falls in one of the closed-loop segments.
func (r *runResult) inClosed(t time.Time) bool {
	for _, rd := range r.rounds {
		if !t.Before(rd.closedStart) && t.Before(rd.closedStart.Add(rd.closedWall)) {
			return true
		}
	}
	return false
}

// phaseCounts returns requests sent, succeeded and failed in recs.
func phaseCounts(recs []record) (sent, ok, failed int) {
	for _, rec := range recs {
		sent++
		if rec.ok {
			ok++
		} else {
			failed++
		}
	}
	return sent, ok, failed
}

// opCounts returns operations attempted and failed at the HTTP level over
// every phase, warm-up included.
func (r *runResult) opCounts() (attempted, failed int) {
	for _, rec := range r.all() {
		attempted += rec.ops
		if !rec.ok {
			failed += rec.ops
		}
	}
	return attempted, failed
}

func (r *runResult) notes() []string {
	open := r.open()
	os, oo, of := phaseCounts(open)
	cs, co, cf := phaseCounts(r.closed())
	lat := latencies(open)
	return []string{
		fmt.Sprintf("open loop: %d rounds, %.0f req/s, %d ops/request over %s (sent %d, ok %d, failed %d); p99 %.2f ms (median of rounds), pooled p99 %.2f ms with %d samples beyond it",
			rounds, r.w.openRate, r.w.openBatch, r.openSpan, os, oo, of, r.p99(), percentile(lat, 0.99), beyond(len(lat), 0.99)),
		fmt.Sprintf("closed loop: %d ops/request (sent %d, ok %d, failed %d)", r.w.closedBatch, cs, co, cf),
		fmt.Sprintf("per round: p50 %s ms, p99 %s ms, throughput %s /s, heap %s MiB, host steal %s",
			fmtList(r.roundP50s()), fmtList(r.roundP99s()), fmtList(r.roundThroughputs()), fmtList(r.heapMB),
			fmtList(r.perRound(func(rd round) float64 { return rd.steal }))),
		fmt.Sprintf("checked: %d signatures verified, %d compared byte for byte, %d verdicts; set-up of this deployment %s",
			r.checked.sigsChecked, r.checked.compared, r.checked.verdicts, r.setup.Round(time.Millisecond)),
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
