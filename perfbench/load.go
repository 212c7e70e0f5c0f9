package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type backendKind int

const (
	backendDevice backendKind = iota // one simulated RTX 4090
	backendCPURef                    // cpuref with one goroutine per CPU
	backendRemote                    // remote proxy to a memoizing cpuref leaf
)

// workload is one named traffic mix. Why each exists is in README.md.
type workload struct {
	name    string
	backend backendKind
	verify  bool // /v1/verify/batch instead of signing
	// openBatch is the open loop's messages per request (1 selects the
	// single-message /v1/sign endpoint); closedBatch the closed loop's.
	openBatch, closedBatch int
	// openRate is the open loop's fixed arrival rate in requests/s, which
	// keeps the backend about a third busy on the reference host.
	openRate float64
}

var workloads = []*workload{
	{name: "sign-default", backend: backendDevice, openBatch: 1, closedBatch: 16, openRate: 12},
	{name: "verify-batch", backend: backendCPURef, verify: true, openBatch: 16, closedBatch: 16, openRate: 28},
	{name: "sign-fleet", backend: backendRemote, openBatch: 1, closedBatch: 8, openRate: 30},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// record is one client request as the load generator saw it.
type record struct {
	id     int32
	stream uint64
	index  uint64 // request index within its stream
	due    time.Time
	sent   time.Time
	done   time.Time
	ops    int
	ok     bool // 200 with a well-formed body
	reqB   int
	respB  int
	// Verify verdicts and expectations (bit j = pair j valid / genuine).
	// Bitmasks, not slices, so records allocate nothing while the heap is
	// measured; maxBatch bounds the pairs per request.
	valid, expect uint32
}

// maxBatch bounds the operations per request (the width of record's
// verdict bitmasks).
const maxBatch = 32

func (r *record) latency() time.Duration { return r.done.Sub(r.due) }

// client drives one deployment over at most conns HTTP connections.
type client struct {
	w     *workload
	seed  uint64
	url   string
	pool  *verifyPool
	hc    *http.Client
	tr    *tracer // nil when untraced
	sigs  *sigStore
	conns int

	nextID atomic.Int32
}

func newClient(w *workload, seed uint64, url string, pool *verifyPool, tr *tracer, sigs *sigStore, conns int) *client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{w: w, seed: seed, url: url, pool: pool, hc: &http.Client{Transport: t}, tr: tr, sigs: sigs, conns: conns}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

type signOne struct {
	Message []byte `json:"message"`
}

type signMany struct {
	Messages [][]byte `json:"messages"`
}

type verifyMany struct {
	Messages   [][]byte `json:"messages"`
	Signatures [][]byte `json:"signatures"`
}

type reply struct {
	Signature  []byte   `json:"signature"`
	Signatures [][]byte `json:"signatures"`
	Valid      []bool   `json:"valid"`
}

// build returns request r of stream: its path, body, messages and, for
// verify requests, the expected verdicts.
func (c *client) build(stream, r uint64, batch int) (string, []byte, [][]byte, uint32, error) {
	var (
		path   string
		body   any
		msgs   = make([][]byte, batch)
		expect uint32
	)
	switch {
	case c.w.verify:
		sigs := make([][]byte, batch)
		for j := range msgs {
			var forged bool
			msgs[j], sigs[j], forged = c.pool.pair(stream, r, j, batch)
			if !forged {
				expect |= 1 << j
			}
		}
		path, body = "/v1/verify/batch", verifyMany{Messages: msgs, Signatures: sigs}
	case batch == 1:
		msgs[0] = message(c.seed, stream, r)
		path, body = "/v1/sign", signOne{Message: msgs[0]}
	default:
		for j := range msgs {
			msgs[j] = message(c.seed, stream, r*uint64(batch)+uint64(j))
		}
		path, body = "/v1/sign/batch", signMany{Messages: msgs}
	}
	b, err := json.Marshal(body)
	return path, b, msgs, expect, err
}

// do sends request rec and fills in its outcome. due is already set.
func (c *client) do(rec *record, batch int) {
	path, body, msgs, expect, err := c.build(rec.stream, rec.index, batch)
	rec.ops, rec.expect, rec.reqB = batch, expect, len(body)
	if err != nil {
		rec.sent, rec.done = time.Now(), time.Now()
		return
	}
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		rec.sent, rec.done = time.Now(), time.Now()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if c.tr != nil {
		req.Header.Set(requestHeader, strconv.Itoa(int(rec.id)))
		c.tr.register(rec.id, msgs)
		defer c.tr.unregister(msgs)
	}
	rec.sent = time.Now()
	resp, err := c.hc.Do(req)
	var raw []byte
	status := 0
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	rec.done = time.Now()
	rec.respB = len(raw)
	if err != nil || status != http.StatusOK {
		return
	}
	var rp reply
	if json.Unmarshal(raw, &rp) != nil {
		return
	}
	switch {
	case c.w.verify:
		if len(rp.Valid) != batch {
			return
		}
		for j, v := range rp.Valid {
			if v {
				rec.valid |= 1 << j
			}
		}
	case batch == 1:
		if rp.Signature == nil {
			return
		}
		c.sigs.add(rec.stream, rec.index, rp.Signature)
	default:
		if len(rp.Signatures) != batch {
			return
		}
		for j, s := range rp.Signatures {
			c.sigs.add(rec.stream, rec.index*uint64(batch)+uint64(j), s)
		}
	}
	rec.ok = true
}

// openLoop sends one request per schedule entry at start+offset, whether
// or not earlier requests have finished, over c.conns connections, and
// records them in recs (len(schedule) long). A request that waits for a
// free connection keeps its scheduled time, so its latency includes the
// wait (no coordinated omission).
func (c *client) openLoop(stream, first uint64, schedule []time.Duration, recs []record) {
	ready := make(chan int, len(schedule)) // never blocks the dispatcher
	start := time.Now().Add(20 * time.Millisecond)
	for i, off := range schedule {
		recs[i] = record{id: c.nextID.Add(1), stream: stream, index: first + uint64(i), due: start.Add(off)}
	}
	var wg sync.WaitGroup
	for k := 0; k < c.conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				c.do(&recs[i], c.w.openBatch)
			}
		}()
	}
	for i := range schedule {
		time.Sleep(time.Until(recs[i].due))
		ready <- i
	}
	close(ready)
	wg.Wait()
}

// closedLoop keeps c.conns requests in flight back to back until span has
// passed, then waits for the last ones. Request indices come from next, so
// successive closed loops continue one stream. It appends the records to
// recs and returns them with the wall time from the first send to the last
// completion.
func (c *client) closedLoop(stream uint64, next *atomic.Uint64, batch int, span time.Duration, recs []record) ([]record, time.Duration) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	stop := start.Add(span)
	for k := 0; k < c.conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				rec := record{id: c.nextID.Add(1), stream: stream, index: next.Add(1) - 1, due: time.Now()}
				c.do(&rec, batch)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	last := start
	for _, r := range recs {
		if r.done.After(last) {
			last = r.done
		}
	}
	return recs, last.Sub(start)
}
